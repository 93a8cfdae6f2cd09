package oracle

import (
	"math"
	"testing"

	"spire/internal/geom"
)

func TestLeftEvalTriangle(t *testing.T) {
	// Points (1,1), (2,4), (4,5): majorant from origin is the chord
	// origin->(2,4) then (2,4)->(4,5); (1,1) lies strictly below.
	pts := []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 4}, {X: 4, Y: 5}}
	cases := []struct{ x, want float64 }{
		{0, 0},
		{1, 2}, // chord origin->(2,4) at x=1, above the (1,1) sample
		{2, 4},
		{3, 4.5}, // chord (2,4)->(4,5)
		{4, 5},
	}
	for _, c := range cases {
		if got := LeftEval(pts, c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("LeftEval(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	if got := LeftEval(pts, 5); !math.IsNaN(got) {
		t.Errorf("LeftEval beyond peak = %g, want NaN", got)
	}
	if got := LeftEval(nil, 1); !math.IsNaN(got) {
		t.Errorf("LeftEval(empty) = %g, want NaN", got)
	}
}

func TestChainEvalHandComputed(t *testing.T) {
	// Left chain origin->(2,4)->(4,6) with the peak at (4,6); the right
	// region holds the peak level until (6,5), falls to (8,1), and the
	// tail is 1 beyond it.
	left := []geom.Point{{X: 2, Y: 4}, {X: 4, Y: 6}}
	right := []geom.Point{{X: 6, Y: 5}, {X: 8, Y: 1}}
	cases := []struct{ x, want float64 }{
		{-3, 0}, // clamped to the origin
		{0, 0},
		{1, 2},
		{3, 5},
		{4, 6},
		{5, 6}, // horizontal peak segment
		{6, 5},
		{7, 3},
		{8, 1},
		{math.Inf(1), 1},
	}
	for _, c := range cases {
		if got := ChainEval(left, right, 1, c.x); got != c.want {
			t.Errorf("ChainEval(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	if got := ChainEval(left, right, 1, math.NaN()); !math.IsNaN(got) {
		t.Errorf("ChainEval(NaN) = %g, want NaN", got)
	}
	if got := ChainEval(nil, right, 1, 1); !math.IsNaN(got) {
		t.Errorf("ChainEval with no left chain = %g, want NaN", got)
	}
	if got := ChainEval(left, nil, 3, 5); got != 3 {
		t.Errorf("ChainEval past a peak with no right chain = %g, want tail 3", got)
	}
}

func TestRightEvalDuplicateBreakpoints(t *testing.T) {
	// Three breakpoints share x=4: the last of them starts the segment,
	// so the zero-width segments are never interpolated.
	peak := geom.Point{X: 2, Y: 10}
	right := []geom.Point{{X: 4, Y: 9}, {X: 4, Y: 8}, {X: 4, Y: 7}, {X: 6, Y: 5}}
	cases := []struct{ x, want float64 }{
		{3, 10},
		{4, 7},
		{5, 6},
		{6, 4},
	}
	for _, c := range cases {
		if got := RightEval(peak, right, 4, c.x); got != c.want {
			t.Errorf("RightEval(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestParetoFrontNaive(t *testing.T) {
	pts := []geom.Point{
		{X: 1, Y: 5}, {X: 2, Y: 3}, {X: 2, Y: 3}, // duplicate collapses
		{X: 1.5, Y: 2}, // dominated by (2,3)
		{X: 4, Y: 1},
	}
	front := ParetoFront(pts)
	want := []geom.Point{{X: 1, Y: 5}, {X: 2, Y: 3}, {X: 4, Y: 1}}
	if len(front) != len(want) {
		t.Fatalf("front = %v, want %v", front, want)
	}
	for i := range want {
		if front[i] != want[i] {
			t.Fatalf("front = %v, want %v", front, want)
		}
	}
}

func TestRightFitShortCircuits(t *testing.T) {
	inf := &geom.Point{X: math.Inf(1), Y: 9}
	if chain, tail := RightFit(nil, inf); chain != nil || tail != 9 {
		t.Errorf("empty front: chain %v tail %g", chain, tail)
	}
	// The +Inf sample dominates the whole front: flat bound at its level.
	pts := []geom.Point{{X: 2, Y: 5}, {X: 3, Y: 4}}
	if chain, tail := RightFit(pts, inf); chain != nil || tail != 9 {
		t.Errorf("dominated front: chain %v tail %g", chain, tail)
	}
	// Single finite member, no +Inf: flat bound at its level.
	if chain, tail := RightFit(pts[:1], nil); chain != nil || tail != 5 {
		t.Errorf("singleton front: chain %v tail %g", chain, tail)
	}
}

func TestRightFitDescendingFrontIsExact(t *testing.T) {
	// A strictly concave-up descending front: the optimal fit touches
	// every member, with zero error.
	pts := []geom.Point{{X: 1, Y: 8}, {X: 2, Y: 4}, {X: 4, Y: 2}, {X: 8, Y: 1}}
	chain, tail := RightFit(pts, nil)
	if len(chain) != len(pts) {
		t.Fatalf("chain = %v, want all of %v", chain, pts)
	}
	for i := range pts {
		if chain[i] != pts[i] {
			t.Fatalf("chain = %v, want %v", chain, pts)
		}
	}
	if tail != 1 {
		t.Errorf("tail = %g, want 1", tail)
	}
	if cost := ChainCost(pts, chain, nil); cost != 0 {
		t.Errorf("ChainCost = %g, want 0", cost)
	}
}

func TestChainCostInvalidChain(t *testing.T) {
	pts := []geom.Point{{X: 1, Y: 8}, {X: 2, Y: 4}, {X: 4, Y: 2}}
	if cost := ChainCost(pts, []geom.Point{{X: 99, Y: 99}}, nil); !math.IsNaN(cost) {
		t.Errorf("cost of foreign chain = %g, want NaN", cost)
	}
}
