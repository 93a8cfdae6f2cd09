// Package oracle holds slow-but-obviously-correct reference
// implementations of SPIRE's fitting algorithms, used only by the
// differential test suites. Each function favors the most direct possible
// formulation of the paper's definitions — quadratic/exponential
// enumeration instead of the optimized geometry and shortest-path code in
// internal/geom, internal/graphalg and internal/core — so that any
// disagreement between the two points at a bug in the fast path.
package oracle

import (
	"math"

	"spire/internal/geom"
)

// LeftEval evaluates the left-region bound the paper defines (§III-D,
// Fig. 5) at intensity x: the least concave majorant of the origin and
// every point at or left of the peak. For a finite point set the majorant
// at x is the maximum over all two-point convex combinations that span x,
// which this computes directly in O(n²) per probe. NaN is returned when
// pts is empty or x is outside [0, peak intensity].
func LeftEval(pts []geom.Point, x float64) float64 {
	peak, ok := maxYPoint(pts)
	if !ok || math.IsNaN(x) || x < 0 || x > peak.X {
		return math.NaN()
	}
	cand := []geom.Point{{X: 0, Y: 0}}
	for _, p := range pts {
		if p.X <= peak.X {
			cand = append(cand, p)
		}
	}
	best := math.Inf(-1)
	for _, p := range cand {
		if p.X == x && p.Y > best {
			best = p.Y
		}
	}
	for _, a := range cand {
		for _, b := range cand {
			if a.X >= b.X || x < a.X || x > b.X {
				continue
			}
			t := (x - a.X) / (b.X - a.X)
			if v := a.Y + t*(b.Y-a.Y); v > best {
				best = v
			}
		}
	}
	if math.IsInf(best, -1) {
		return math.NaN()
	}
	return best
}

// ChainEval evaluates a fitted roofline's chain at intensity x by the
// direct definition, walking the breakpoints one by one: from the origin
// (0,0) through left (ascending, ending at the peak), then RightEval
// beyond the peak. NaN is returned for NaN x or an empty left chain, and
// negative x is clamped to zero. It is the reference the fast segment
// table in internal/core must reproduce bit for bit, so it interpolates
// with the same clamped arithmetic.
func ChainEval(left, right []geom.Point, tail, x float64) float64 {
	if math.IsNaN(x) || len(left) == 0 {
		return math.NaN()
	}
	if x < 0 {
		x = 0
	}
	peak := left[len(left)-1]
	if x > peak.X {
		return RightEval(peak, right, tail, x)
	}
	prev := geom.Point{}
	for _, p := range left {
		if x <= p.X {
			if p.X == prev.X {
				return p.Y
			}
			return lerp(prev, p, x)
		}
		prev = p
	}
	return prev.Y
}

// RightEval evaluates the right region and tail of a fitted chain at an
// intensity x beyond the peak (paper §III-D, Fig. 6): the horizontal peak
// level until the first right breakpoint, linear interpolation along the
// right chain, and tail at or beyond its last breakpoint. Where
// breakpoints share an abscissa, the last of them starts the segment, so
// a zero-width segment is never interpolated.
func RightEval(peak geom.Point, right []geom.Point, tail, x float64) float64 {
	n := len(right)
	switch {
	case n == 0 || x >= right[n-1].X:
		return tail
	case x < right[0].X:
		return peak.Y
	}
	for k := n - 2; k >= 0; k-- {
		if right[k].X <= x {
			return lerp(right[k], right[k+1], x)
		}
	}
	return peak.Y
}

// lerp interpolates segment a-b at x, clamped into the endpoints' Y
// range so cancellation in the final add cannot escape the segment.
func lerp(a, b geom.Point, x float64) float64 {
	t := (x - a.X) / (b.X - a.X)
	y := a.Y + t*(b.Y-a.Y)
	switch lo, hi := math.Min(a.Y, b.Y), math.Max(a.Y, b.Y); {
	case y < lo:
		return lo
	case y > hi:
		return hi
	}
	return y
}

// maxYPoint returns the highest-Y point, ties broken by lower X (the
// fast path's peak selection rule), and ok=false for an empty slice.
func maxYPoint(pts []geom.Point) (geom.Point, bool) {
	if len(pts) == 0 {
		return geom.Point{}, false
	}
	best := pts[0]
	for _, p := range pts[1:] {
		if p.Y > best.Y || (p.Y == best.Y && p.X < best.X) {
			best = p
		}
	}
	return best, true
}

// ParetoFront returns the points that are Pareto-optimal when maximizing
// both coordinates, checked pair-by-pair in O(n²): a point survives iff no
// other point dominates it (>= in both coordinates, > in at least one).
// Duplicates are collapsed; the result ascends in X.
func ParetoFront(pts []geom.Point) []geom.Point {
	var front []geom.Point
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i == j {
				continue
			}
			if q.X >= p.X && q.Y >= p.Y && (q.X > p.X || q.Y > p.Y) {
				dominated = true
				break
			}
			// Collapse exact duplicates: keep only the first.
			if q == p && j < i {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	// Insertion sort by ascending X (front is tiny).
	for i := 1; i < len(front); i++ {
		for j := i; j > 0 && front[j].X < front[j-1].X; j-- {
			front[j], front[j-1] = front[j-1], front[j]
		}
	}
	return front
}

// rightProblem carries the shared state of one right-region fit: the
// Pareto front (ascending X, descending Y), the optional I=+Inf sample,
// the peak level, and the comparison tolerance — all defined exactly as
// the fast path defines them.
type rightProblem struct {
	front []geom.Point
	inf   *geom.Point
	peakY float64
	tol   float64
}

// chord is one candidate segment from front[j] (or the +Inf node when
// j == len(front)) down-left to front[i].
type chord struct {
	valid bool
	err   float64
	slope float64
}

// chord computes segment validity, squared overestimation error over
// skipped front members, and slope, per the paper's objective.
func (rp *rightProblem) chord(j, i int) chord {
	m := len(rp.front)
	if j == m {
		// Horizontal segment from the +Inf sample to front[i]: always
		// valid (the front descends), erring over every member right of
		// i plus the +Inf sample itself.
		c := chord{valid: true, slope: 0}
		for k := i + 1; k < m; k++ {
			d := rp.front[i].Y - rp.front[k].Y
			c.err += d * d
		}
		d := rp.front[i].Y - rp.inf.Y
		c.err += d * d
		return c
	}
	a, b := rp.front[i], rp.front[j]
	c := chord{valid: true, slope: geom.Slope(a, b)}
	for k := i + 1; k < j; k++ {
		lineY := a.Y + c.slope*(rp.front[k].X-a.X)
		d := lineY - rp.front[k].Y
		if d < -rp.tol {
			return chord{}
		}
		c.err += d * d
	}
	return c
}

// endErr is the cost of finishing with the horizontal peak-level segment
// from the leftmost front member E to front[i]: it overestimates every
// member in between and the member it drops down to.
func (rp *rightProblem) endErr(i int) float64 {
	if i == 0 {
		return 0
	}
	var e float64
	for k := 1; k <= i; k++ {
		d := rp.peakY - rp.front[k].Y
		e += d * d
	}
	return e
}

// seqCost sums a node sequence's chord errors plus the closing horizontal
// segment. nodes descend from the rightmost node (len(front) when the
// +Inf sample leads) to the last chosen finite member; NaN is returned
// for a structurally invalid sequence.
func (rp *rightProblem) seqCost(nodes []int) float64 {
	if len(nodes) < 2 {
		return math.NaN()
	}
	var cost float64
	lastSlope := math.Inf(1)
	for t := 0; t+1 < len(nodes); t++ {
		c := rp.chord(nodes[t], nodes[t+1])
		if !c.valid || c.slope > lastSlope+rp.tol {
			return math.NaN()
		}
		cost += c.err
		lastSlope = c.slope
	}
	return cost + rp.endErr(nodes[len(nodes)-1])
}

// newRightProblem mirrors the fast path's preprocessing: Pareto front,
// the +Inf short-circuits, and dominated-member filtering. done reports
// that the fit is already decided without enumeration, with the given
// tail (chain empty).
func newRightProblem(right []geom.Point, inf *geom.Point) (rp *rightProblem, tail float64, done bool) {
	front := ParetoFront(right)
	if len(front) == 0 {
		if inf != nil {
			return nil, inf.Y, true
		}
		return nil, math.NaN(), true
	}
	peakY := front[0].Y
	if inf != nil && inf.Y >= peakY {
		return nil, inf.Y, true
	}
	if inf != nil {
		kept := front[:0]
		for _, p := range front {
			if p.Y > inf.Y {
				kept = append(kept, p)
			}
		}
		front = kept
		if len(front) == 0 {
			return nil, inf.Y, true
		}
	}
	if len(front) == 1 && inf == nil {
		return nil, front[0].Y, true
	}
	return &rightProblem{
		front: front,
		inf:   inf,
		peakY: peakY,
		tol:   1e-9 * (1 + math.Abs(peakY)),
	}, 0, false
}

// RightFit solves the right-region fitting problem (paper §III-D, Fig. 6)
// by exhaustively enumerating every valid node sequence over the
// segment-compatibility graph — every descending choice of Pareto-front
// members whose consecutive chords do not overhang skipped members and
// grow monotonically steeper leftward — and returning a minimum-cost
// chain (ascending, finite) with its tail level. Exponential in the front
// size; callers keep inputs small.
func RightFit(right []geom.Point, inf *geom.Point) (chain []geom.Point, tail float64) {
	rp, tail, done := newRightProblem(right, inf)
	if done {
		return nil, tail
	}
	m := len(rp.front)
	rightmost := m - 1
	if inf != nil {
		rightmost = m
	}

	bestCost := math.Inf(1)
	var bestSeq []int
	var dfs func(seq []int, costSoFar, lastSlope float64)
	dfs = func(seq []int, costSoFar, lastSlope float64) {
		cur := seq[len(seq)-1]
		if total := costSoFar + rp.endErr(cur); total < bestCost {
			bestCost = total
			bestSeq = append([]int(nil), seq...)
		}
		for h := cur - 1; h >= 0; h-- {
			c := rp.chord(cur, h)
			if !c.valid || c.slope > lastSlope+rp.tol {
				continue
			}
			dfs(append(seq, h), costSoFar+c.err, c.slope)
		}
	}
	for i := rightmost - 1; i >= 0; i-- {
		c := rp.chord(rightmost, i)
		if !c.valid {
			continue
		}
		dfs([]int{rightmost, i}, c.err, c.slope)
	}
	if bestSeq == nil {
		// Mirrors the fast path's defensive fallback; unreachable in
		// practice because adjacent chords are always valid.
		if inf != nil {
			return nil, rp.front[m-1].Y
		}
		return nil, rp.peakY
	}
	for t := len(bestSeq) - 1; t >= 0; t-- {
		if bestSeq[t] == m {
			continue
		}
		chain = append(chain, rp.front[bestSeq[t]])
	}
	return chain, chain[len(chain)-1].Y
}

// BestRightCost returns the exhaustive minimum cost for the right-region
// problem, or 0 with done=true when the fit short-circuits before
// enumeration (empty/singleton fronts and +Inf dominance).
func BestRightCost(right []geom.Point, inf *geom.Point) (cost float64, done bool) {
	if _, _, shortcut := newRightProblem(right, inf); shortcut {
		return 0, true
	}
	chain, _ := RightFit(right, inf)
	return ChainCost(right, chain, inf), false
}

// ChainCost scores an already-chosen right-region chain (ascending finite
// breakpoints, as fitRight returns) under the same objective the
// enumeration minimizes. It maps chain members back to Pareto-front
// indices by X (front abscissae are unique) and sums the node sequence's
// cost. NaN is returned when the chain is not a valid descending
// selection of front members.
func ChainCost(right []geom.Point, chain []geom.Point, inf *geom.Point) float64 {
	rp, _, done := newRightProblem(right, inf)
	if done {
		return math.NaN()
	}
	m := len(rp.front)
	nodes := make([]int, 0, len(chain)+1)
	if inf != nil {
		nodes = append(nodes, m)
	} else {
		// The rightmost finite member always leads the sequence.
		nodes = append(nodes, m-1)
	}
	for t := len(chain) - 1; t >= 0; t-- {
		idx := -1
		for k, p := range rp.front {
			if p.X == chain[t].X && p.Y == chain[t].Y {
				idx = k
				break
			}
		}
		if idx < 0 {
			return math.NaN()
		}
		if idx != nodes[len(nodes)-1] {
			nodes = append(nodes, idx)
		}
	}
	return rp.seqCost(nodes)
}
