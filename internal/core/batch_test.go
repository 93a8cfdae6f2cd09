package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"spire/internal/oracle"
)

// estimationsEquivalent compares two estimations field by field. Every
// field must match exactly except MeasuredThroughput, which may differ in
// the last bits because Ensemble.Estimate accumulates deduplicated
// periods in map-iteration order while BatchEstimate merges them in
// metric-name order.
func estimationsEquivalent(t *testing.T, got, want *Estimation) {
	t.Helper()
	if !reflect.DeepEqual(got.PerMetric, want.PerMetric) {
		// NaN-tolerant per-metric comparison: DeepEqual is false for
		// NaN MeanIntensity even when both sides agree.
		if len(got.PerMetric) != len(want.PerMetric) {
			t.Fatalf("PerMetric length %d != %d", len(got.PerMetric), len(want.PerMetric))
		}
		for i := range got.PerMetric {
			g, w := got.PerMetric[i], want.PerMetric[i]
			if g.Metric != w.Metric || g.MeanEstimate != w.MeanEstimate || g.Samples != w.Samples {
				t.Fatalf("PerMetric[%d] = %+v, want %+v", i, g, w)
			}
			if g.MeanIntensity != w.MeanIntensity &&
				!(math.IsNaN(g.MeanIntensity) && math.IsNaN(w.MeanIntensity)) {
				t.Fatalf("PerMetric[%d].MeanIntensity = %g, want %g", i, g.MeanIntensity, w.MeanIntensity)
			}
		}
	}
	if got.MaxThroughput != want.MaxThroughput {
		t.Fatalf("MaxThroughput %g != %g", got.MaxThroughput, want.MaxThroughput)
	}
	if !reflect.DeepEqual(got.Coverage, want.Coverage) {
		t.Fatalf("Coverage %+v != %+v", got.Coverage, want.Coverage)
	}
	gm, wm := got.MeasuredThroughput, want.MeasuredThroughput
	if math.IsNaN(gm) != math.IsNaN(wm) {
		t.Fatalf("MeasuredThroughput NaN-ness differs: %g vs %g", gm, wm)
	}
	if !math.IsNaN(gm) && math.Abs(gm-wm) > 1e-9*(1+math.Abs(wm)) {
		t.Fatalf("MeasuredThroughput %g != %g", gm, wm)
	}
}

// randWorkload builds a workload over a random subset of metric names,
// with occasional corrupt rows, shared windows and M = 0 (I = +Inf)
// samples.
func randWorkload(rng *rand.Rand) Dataset {
	names := []string{"alpha", "beta", "gamma", "delta", "unmodeled.event"}
	var d Dataset
	n := rng.Intn(60)
	for i := 0; i < n; i++ {
		s := Sample{
			Metric: names[rng.Intn(len(names))],
			T:      float64(1 + rng.Intn(6)),
			W:      float64(rng.Intn(30)),
			M:      float64(rng.Intn(6)),
			Window: rng.Intn(4),
		}
		if rng.Intn(12) == 0 {
			s.T = -s.T // invalid, must be dropped by indexing
		}
		d.Add(s)
	}
	return d
}

// TestBatchEstimateMatchesEstimate: for random models and workloads, the
// pre-indexed path reproduces Ensemble.Estimate.
func TestBatchEstimateMatchesEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ctx := context.Background()
	checked := 0
	for checked < 120 {
		train := randMultiMetricDataset(rng, 4)
		ens, err := Train(train, TrainOptions{})
		if err != nil {
			continue
		}
		w := randWorkload(rng)
		want, werr := ens.Estimate(w)
		ix := IndexWorkload(w)
		got, gerr := ens.BatchEstimate(ctx, ix, EstimateOptions{})
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("error mismatch: %v vs %v", gerr, werr)
		}
		if werr != nil {
			if !errors.Is(gerr, ErrNoSamples) {
				t.Fatalf("unexpected error %v", gerr)
			}
		} else {
			estimationsEquivalent(t, got, want)
		}
		checked++
	}
}

// TestBatchEstimateDeterministicAcrossCalls: repeated batch estimations
// are bit-identical (including MeasuredThroughput, which the non-indexed
// path does not guarantee).
func TestBatchEstimateDeterministicAcrossCalls(t *testing.T) {
	ens := trainTwoMetric(t)
	var w Dataset
	w.Add(mkPlausible("stalls", 16)...)
	w.Add(mkPlausible("misses", 16)...)
	ix := IndexWorkload(w)
	ctx := context.Background()
	first, err := ens.BatchEstimate(ctx, ix, EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := ens.BatchEstimate(ctx, ix, EstimateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if again.MeasuredThroughput != first.MeasuredThroughput {
			t.Fatalf("MeasuredThroughput drifted: %g vs %g", again.MeasuredThroughput, first.MeasuredThroughput)
		}
		if !reflect.DeepEqual(again.PerMetric, first.PerMetric) {
			t.Fatalf("PerMetric drifted: %+v vs %+v", again.PerMetric, first.PerMetric)
		}
	}
}

// TestBatchEstimateCancellation: a cancelled context aborts estimation.
func TestBatchEstimateCancellation(t *testing.T) {
	ens := trainTwoMetric(t)
	var w Dataset
	w.Add(mkPlausible("stalls", 32)...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ens.BatchEstimate(ctx, IndexWorkload(w), EstimateOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBatchEstimateEmptyWorkload: an empty (or fully invalid) workload
// yields ErrNoSamples from both paths.
func TestBatchEstimateEmptyWorkload(t *testing.T) {
	ens := trainTwoMetric(t)
	ctx := context.Background()
	var empty Dataset
	if _, err := ens.BatchEstimate(ctx, IndexWorkload(empty), EstimateOptions{}); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("empty: err = %v, want ErrNoSamples", err)
	}
	var invalid Dataset
	invalid.Add(Sample{Metric: "stalls", T: -1, W: 2, M: 1})
	if _, err := ens.BatchEstimate(ctx, IndexWorkload(invalid), EstimateOptions{}); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("invalid-only: err = %v, want ErrNoSamples", err)
	}
	var unmodeled Dataset
	unmodeled.Add(mkPlausible("other.event", 4)...)
	if _, err := ens.BatchEstimate(ctx, IndexWorkload(unmodeled), EstimateOptions{}); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("no-overlap: err = %v, want ErrNoSamples", err)
	}
}

// TestBatchEstimateSingleSample: a one-sample workload estimates exactly
// like the non-indexed path.
func TestBatchEstimateSingleSample(t *testing.T) {
	ens := trainTwoMetric(t)
	var w Dataset
	w.Add(Sample{Metric: "stalls", T: 1000, W: 1500, M: 50})
	want, err := ens.Estimate(w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ens.BatchEstimate(context.Background(), IndexWorkload(w), EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	estimationsEquivalent(t, got, want)
	if got.PerMetric[0].Samples != 1 {
		t.Errorf("Samples = %d, want 1", got.PerMetric[0].Samples)
	}
}

// TestBatchEstimateAllInfIntensity: a workload whose metric never fires
// (M = 0 throughout, I = +Inf) estimates at the roofline tail, exactly
// like the non-indexed path.
func TestBatchEstimateAllInfIntensity(t *testing.T) {
	ens := trainTwoMetric(t)
	var w Dataset
	for i := 0; i < 6; i++ {
		w.Add(Sample{Metric: "stalls", T: 1000, W: 1200 + 10*float64(i), M: 0})
	}
	want, err := ens.Estimate(w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ens.BatchEstimate(context.Background(), IndexWorkload(w), EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	estimationsEquivalent(t, got, want)
	if !math.IsInf(got.PerMetric[0].MeanIntensity, 1) {
		t.Errorf("MeanIntensity = %g, want +Inf", got.PerMetric[0].MeanIntensity)
	}
	if got.PerMetric[0].MeanEstimate != ens.Rooflines["stalls"].TailY {
		t.Errorf("MeanEstimate = %g, want tail %g", got.PerMetric[0].MeanEstimate, ens.Rooflines["stalls"].TailY)
	}
}

// TestChainEvalMatchesRooflineEval: the segment table behind
// Roofline.Eval is bit-identical to the oracle's segment-walk reference
// across random fits and probes, including the boundaries (0,
// breakpoints, peak, beyond-tail, +Inf, NaN).
func TestChainEvalMatchesRooflineEval(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	fits := 0
	for fits < 300 {
		samples := randDiffSamples(rng, fits%2 == 0)
		r, err := FitRoofline("m", samples)
		if err != nil {
			continue
		}
		fits++
		ce := newChainEval(r)
		probes := []float64{0, -1, r.Peak().X, r.TailY, math.Inf(1), math.NaN()}
		for _, p := range r.Left {
			probes = append(probes, p.X, p.X*0.5, p.X*1.0001)
		}
		for _, p := range r.Right {
			probes = append(probes, p.X, p.X*0.9999, p.X*1.5)
		}
		for i := 0; i < 24; i++ {
			probes = append(probes, rng.Float64()*r.Peak().X*3)
		}
		for _, x := range probes {
			want := oracle.ChainEval(r.Left, r.Right, r.TailY, x)
			got := ce.eval(x)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("eval(%g) = %g, want %g (roofline %+v)", x, got, want, r)
			}
		}
	}
}

// TestConcurrentEstimatorsStress hammers one trained ensemble from 32
// concurrent estimators mixing BatchEstimate, Estimate and Eval. Run
// under -race (make race) this proves ensembles are read-safe after
// training, including the lazy evaluator memoization.
func TestConcurrentEstimatorsStress(t *testing.T) {
	ens := trainTwoMetric(t)
	var w Dataset
	w.Add(mkPlausible("stalls", 24)...)
	w.Add(mkPlausible("misses", 24)...)
	ix := IndexWorkload(w)
	ctx := context.Background()

	ref, err := ens.BatchEstimate(ctx, ix, EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch g % 3 {
				case 0:
					got, err := ens.BatchEstimate(ctx, ix, EstimateOptions{})
					if err != nil {
						errs <- err
						return
					}
					if got.MaxThroughput != ref.MaxThroughput {
						errs <- errors.New("concurrent BatchEstimate diverged")
						return
					}
				case 1:
					if _, err := ens.Estimate(w); err != nil {
						errs <- err
						return
					}
				default:
					for _, r := range ens.Rooflines {
						_ = r.Eval(float64(i))
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWorkloadIndexAccessors covers the index's introspection helpers.
func TestWorkloadIndexAccessors(t *testing.T) {
	var d Dataset
	d.Add(mkPlausible("b.metric", 3)...)
	d.Add(mkPlausible("a.metric", 2)...)
	d.Add(Sample{Metric: "bad", T: -1, W: 1, M: 1})
	ix := IndexWorkload(d)
	if got := ix.Metrics(); len(got) != 2 || got[0] != "a.metric" || got[1] != "b.metric" {
		t.Errorf("Metrics() = %v", got)
	}
	if ix.Len() != 5 {
		t.Errorf("Len() = %d, want 5 (invalid sample dropped)", ix.Len())
	}
}
