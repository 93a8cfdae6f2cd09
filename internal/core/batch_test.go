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

// estimate indexes d and runs the Eq. 1 estimation against ens into a
// fresh Estimation: engine.Estimate minus the index cache, for tests that
// cannot import engine.
func estimate(ens *Ensemble, d Dataset) (*Estimation, error) {
	est := new(Estimation)
	if err := ens.BatchEstimateInto(context.Background(), IndexWorkload(d), EstimateOptions{}, est); err != nil {
		return nil, err
	}
	return est, nil
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

// TestBatchEstimateDeterministicAcrossCalls: repeated batch estimations
// are bit-identical, MeasuredThroughput included.
func TestBatchEstimateDeterministicAcrossCalls(t *testing.T) {
	ens := trainTwoMetric(t)
	var w Dataset
	w.Add(mkPlausible("stalls", 16)...)
	w.Add(mkPlausible("misses", 16)...)
	ix := IndexWorkload(w)
	ctx := context.Background()
	first := new(Estimation)
	if err := ens.BatchEstimateInto(ctx, ix, EstimateOptions{}, first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again := new(Estimation)
		if err := ens.BatchEstimateInto(ctx, ix, EstimateOptions{}, again); err != nil {
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
	if err := ens.BatchEstimateInto(ctx, IndexWorkload(w), EstimateOptions{}, new(Estimation)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBatchEstimateEmptyWorkload: an empty (or fully invalid) workload
// yields ErrNoSamples.
func TestBatchEstimateEmptyWorkload(t *testing.T) {
	ens := trainTwoMetric(t)
	ctx := context.Background()
	var empty Dataset
	if err := ens.BatchEstimateInto(ctx, IndexWorkload(empty), EstimateOptions{}, new(Estimation)); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("empty: err = %v, want ErrNoSamples", err)
	}
	var invalid Dataset
	invalid.Add(Sample{Metric: "stalls", T: -1, W: 2, M: 1})
	if err := ens.BatchEstimateInto(ctx, IndexWorkload(invalid), EstimateOptions{}, new(Estimation)); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("invalid-only: err = %v, want ErrNoSamples", err)
	}
	var unmodeled Dataset
	unmodeled.Add(mkPlausible("other.event", 4)...)
	if err := ens.BatchEstimateInto(ctx, IndexWorkload(unmodeled), EstimateOptions{}, new(Estimation)); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("no-overlap: err = %v, want ErrNoSamples", err)
	}
}

// TestBatchEstimateSingleSample: a one-sample workload estimates its
// metric's roofline at the sample's intensity, and measures its own W/T.
func TestBatchEstimateSingleSample(t *testing.T) {
	ens := trainTwoMetric(t)
	var w Dataset
	s := Sample{Metric: "stalls", T: 1000, W: 1500, M: 50}
	w.Add(s)
	got, err := estimate(ens, w)
	if err != nil {
		t.Fatal(err)
	}
	want := ens.Rooflines["stalls"].Eval(s.Intensity())
	if len(got.PerMetric) != 1 || !relClose(got.PerMetric[0].MeanEstimate, want) || got.MaxThroughput != got.PerMetric[0].MeanEstimate {
		t.Fatalf("estimation %+v, want one metric at %g", got, want)
	}
	if got.MeasuredThroughput != 1.5 {
		t.Errorf("MeasuredThroughput = %g, want 1.5", got.MeasuredThroughput)
	}
	if got.PerMetric[0].Samples != 1 {
		t.Errorf("Samples = %d, want 1", got.PerMetric[0].Samples)
	}
}

// TestBatchEstimateAllInfIntensity: a workload whose metric never fires
// (M = 0 throughout, I = +Inf) estimates at the roofline tail.
func TestBatchEstimateAllInfIntensity(t *testing.T) {
	ens := trainTwoMetric(t)
	var w Dataset
	for i := 0; i < 6; i++ {
		w.Add(Sample{Metric: "stalls", T: 1000, W: 1200 + 10*float64(i), M: 0})
	}
	got, err := estimate(ens, w)
	if err != nil {
		t.Fatal(err)
	}
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
// concurrent estimators mixing BatchEstimateInto, estimate and Eval. Run
// under -race (make race) this proves ensembles are read-safe after
// training, including the lazy evaluator memoization.
func TestConcurrentEstimatorsStress(t *testing.T) {
	ens := trainTwoMetric(t)
	var w Dataset
	w.Add(mkPlausible("stalls", 24)...)
	w.Add(mkPlausible("misses", 24)...)
	ix := IndexWorkload(w)
	ctx := context.Background()

	ref := new(Estimation)
	if err := ens.BatchEstimateInto(ctx, ix, EstimateOptions{}, ref); err != nil {
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
					got := new(Estimation)
					if err := ens.BatchEstimateInto(ctx, ix, EstimateOptions{}, got); err != nil {
						errs <- err
						return
					}
					if got.MaxThroughput != ref.MaxThroughput {
						errs <- errors.New("concurrent BatchEstimateInto diverged")
						return
					}
				case 1:
					if _, err := estimate(ens, w); err != nil {
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
