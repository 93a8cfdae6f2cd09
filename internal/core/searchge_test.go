package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"spire/internal/geom"
	"spire/internal/oracle"
)

// TestSearchGEMatchesSortSearch is the property pinning the whole
// columnar fast path: on sorted input, searchGE must return the
// identical index to sort.SearchFloat64s for every query — the two are
// the same monotone-predicate search, differing only in probe choice.
func TestSearchGEMatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	queries := 0
	check := func(xs []float64, x float64) {
		t.Helper()
		got, want := searchGE(xs, x), sort.SearchFloat64s(xs, x)
		if got != want {
			t.Fatalf("searchGE(%v, %v) = %d, want %d", xs, x, got, want)
		}
		queries++
	}

	// Random arrays across the sizes where the probe strategy changes
	// (pure bisection at <= 4 elements, interpolation above), with value
	// distributions interpolation likes (uniform) and hates (clustered).
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 16, 100, 1000} {
		for rep := 0; rep < 8; rep++ {
			xs := make([]float64, n)
			for i := range xs {
				switch rep % 3 {
				case 0:
					xs[i] = rng.Float64() * 1e6
				case 1:
					xs[i] = math.Exp(rng.Float64() * 40) // wildly skewed
				default:
					xs[i] = float64(rng.Intn(4)) // heavy duplicates
				}
			}
			sort.Float64s(xs)
			for q := 0; q < 120; q++ {
				var x float64
				switch q % 4 {
				case 0:
					x = rng.Float64() * 1e6
				case 1:
					x = math.Exp(rng.Float64() * 40)
				case 2:
					x = float64(rng.Intn(5))
				default:
					if n > 0 {
						x = xs[rng.Intn(n)] // exact hits, including duplicates
					}
				}
				check(xs, x)
			}
		}
	}
	if queries < 10000 {
		t.Fatalf("property test ran only %d queries, want >= 10000", queries)
	}
}

// TestSearchGEExtremeValues drives the interpolation probe's arithmetic
// through denormals, extreme magnitudes, and infinities, where the
// (x-a)/(b-a) estimate can overflow, underflow, or go NaN — the clamp
// must keep every probe in range and the result identical to binary
// search.
func TestSearchGEExtremeValues(t *testing.T) {
	arrays := [][]float64{
		{math.SmallestNonzeroFloat64},
		{5e-324, 1e-308, 2e-308, 1e-300, 1, 1e300, 1e308, math.MaxFloat64},
		{math.Inf(-1), -1e308, 0, 1e308, math.Inf(1)},
		{0, 0, 0, 0, 0, 0, 0, 0},
		{-math.MaxFloat64, math.MaxFloat64}, // b-a overflows to +Inf
	}
	queries := []float64{
		math.Inf(-1), -1e308, -1, math.Copysign(0, -1), 0, 5e-324, 1e-308,
		0.5, 1, 1e300, 1e308, math.MaxFloat64, math.Inf(1),
	}
	for _, xs := range arrays {
		sort.Float64s(xs)
		for _, x := range queries {
			got, want := searchGE(xs, x), sort.SearchFloat64s(xs, x)
			if got != want {
				t.Fatalf("searchGE(%v, %v) = %d, want %d", xs, x, got, want)
			}
		}
	}
}

// TestSearchGEGarbageInput feeds unsorted and NaN-laden arrays: the
// contract is "some index in [0, len], no panic" — the same
// garbage-tolerance binary search has.
func TestSearchGEGarbageInput(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for rep := 0; rep < 200; rep++ {
		n := rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			switch rng.Intn(4) {
			case 0:
				xs[i] = math.NaN()
			case 1:
				xs[i] = math.Inf(1 - 2*rng.Intn(2))
			default:
				xs[i] = rng.NormFloat64() * 1e10
			}
		}
		// Deliberately NOT sorted.
		for q := 0; q < 20; q++ {
			x := rng.NormFloat64() * 1e10
			if q%5 == 0 {
				x = math.NaN()
			}
			if k := searchGE(xs, x); k < 0 || k > n {
				t.Fatalf("searchGE returned %d outside [0, %d]", k, n)
			}
		}
	}
}

// bitsEqual treats NaN == NaN (any payload-to-payload difference still
// fails: the columnar path must reproduce the reference's exact bits).
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkEvalAgreement sweeps the given queries through the segment table
// and the oracle's segment-walk reference.
func checkEvalAgreement(t *testing.T, r *Roofline, queries []float64) {
	t.Helper()
	ce := newChainEval(r)
	for _, i := range queries {
		got, want := ce.eval(i), oracle.ChainEval(r.Left, r.Right, r.TailY, i)
		if !bitsEqual(got, want) {
			t.Fatalf("eval(%v) = %v (bits %x), oracle.ChainEval = %v (bits %x)",
				i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// standardQueries are the boundary-heavy probe points for a chain:
// every breakpoint exactly, either side of each via Nextafter, plus the
// global extremes.
func standardQueries(r *Roofline) []float64 {
	qs := []float64{
		math.NaN(), math.Inf(-1), -1, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 1e-308, 0.5, 1e308, math.MaxFloat64, math.Inf(1),
	}
	for _, p := range append(append([]geom.Point(nil), r.Left...), r.Right...) {
		qs = append(qs, p.X, math.Nextafter(p.X, math.Inf(-1)), math.Nextafter(p.X, math.Inf(1)))
	}
	return qs
}

func TestChainEvalSingleSegment(t *testing.T) {
	for _, r := range []*Roofline{
		{Metric: "m", Left: []geom.Point{{X: 2, Y: 10}}, TailY: 10},
		{Metric: "m", Left: []geom.Point{{X: 0, Y: 3}}, TailY: 3}, // degenerate: peak at origin
		{Metric: "m", Left: []geom.Point{{X: 2, Y: 10}}, Right: []geom.Point{{X: 8, Y: 6}}, TailY: 6},
	} {
		checkEvalAgreement(t, r, standardQueries(r))
	}
}

func TestChainEvalDuplicateBreakpoints(t *testing.T) {
	// Zero-width segments in both chains, including runs longer than two;
	// fitted models never produce these, but loaded JSON can, and the
	// table must agree with the reference on them.
	rs := []*Roofline{
		{Metric: "m", Left: []geom.Point{{X: 1, Y: 2}, {X: 1, Y: 5}, {X: 3, Y: 7}}, TailY: 7},
		{Metric: "m",
			Left:  []geom.Point{{X: 2, Y: 10}},
			Right: []geom.Point{{X: 4, Y: 9}, {X: 4, Y: 8}, {X: 4, Y: 7}, {X: 6, Y: 5}},
			TailY: 4},
		{Metric: "m",
			Left:  []geom.Point{{X: 0, Y: 0}, {X: 0, Y: 4}, {X: 2, Y: 10}},
			Right: []geom.Point{{X: 5, Y: 8}, {X: 5, Y: 6}},
			TailY: 5},
	}
	for _, r := range rs {
		checkEvalAgreement(t, r, standardQueries(r))
	}
}

func TestChainEvalExtremeChains(t *testing.T) {
	rs := []*Roofline{
		// Denormal and near-max abscissae: interpolation probes overflow.
		{Metric: "m",
			Left:  []geom.Point{{X: 5e-324, Y: 1}, {X: 1e-300, Y: 2}, {X: 1, Y: 9}},
			Right: []geom.Point{{X: 1e300, Y: 8}, {X: 1e308, Y: 3}},
			TailY: 2},
		// Infinite throughput plateau (the zero-intensity special fit).
		{Metric: "m", Left: []geom.Point{{X: 0, Y: math.Inf(1)}}, TailY: math.Inf(1)},
		// Empty left chain: both must answer NaN everywhere.
		{Metric: "m", TailY: 1},
	}
	for _, r := range rs {
		checkEvalAgreement(t, r, standardQueries(r))
	}
}

// TestChainEvalRandomAgainstEval is the randomized sweep: fitted-shape
// chains, ~10k queries, bit-identical to the oracle's reference.
func TestChainEvalRandomAgainstEval(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	total := 0
	for rep := 0; rep < 60; rep++ {
		nl, nr := 1+rng.Intn(8), rng.Intn(8)
		r := &Roofline{Metric: "m"}
		x := 0.0
		for i := 0; i < nl; i++ {
			x += rng.Float64() * 10
			r.Left = append(r.Left, geom.Point{X: x, Y: rng.Float64() * 100})
		}
		for i := 0; i < nr; i++ {
			x += rng.Float64() * 10
			r.Right = append(r.Right, geom.Point{X: x, Y: rng.Float64() * 100})
		}
		r.TailY = rng.Float64() * 50
		ce := newChainEval(r)
		for q := 0; q < 170; q++ {
			i := rng.Float64() * (x + 5)
			if q%7 == 0 {
				i = -i
			}
			got, want := ce.eval(i), oracle.ChainEval(r.Left, r.Right, r.TailY, i)
			if !bitsEqual(got, want) {
				t.Fatalf("rep %d: eval(%v) = %v, oracle.ChainEval = %v", rep, i, got, want)
			}
			total++
		}
	}
	if total < 10000 {
		t.Fatalf("random sweep ran only %d queries, want >= 10000", total)
	}
}
