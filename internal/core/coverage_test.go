package core

import (
	"errors"
	"math"
	"testing"
)

// trainTwoMetric fits a small ensemble over two metrics.
func trainTwoMetric(t *testing.T) *Ensemble {
	t.Helper()
	var d Dataset
	d.Add(mkPlausible("stalls", 20)...)
	d.Add(mkPlausible("misses", 20)...)
	ens, err := Train(d, TrainOptions{WorkUnit: "instructions", TimeUnit: "cycles"})
	if err != nil {
		t.Fatal(err)
	}
	return ens
}

func TestEstimatePartialCoverageDataOnlyMetric(t *testing.T) {
	ens := trainTwoMetric(t)
	// Workload measures one modeled metric plus one the model has never
	// seen: estimation must proceed on the shared metric and report the
	// unmodeled one, not silently zero anything.
	var w Dataset
	w.Add(mkPlausible("stalls", 8)...)
	w.Add(mkPlausible("some.unknown.event", 8)...)
	est, err := estimate(ens, w)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if len(est.PerMetric) != 1 || est.PerMetric[0].Metric != "stalls" {
		t.Fatalf("PerMetric = %+v, want just stalls", est.PerMetric)
	}
	if est.PerMetric[0].MeanEstimate <= 0 || math.IsNaN(est.PerMetric[0].MeanEstimate) {
		t.Errorf("stalls estimate = %g, want positive", est.PerMetric[0].MeanEstimate)
	}
	cov := est.Coverage
	if cov.ModelMetrics != 2 || cov.DataMetrics != 2 || cov.Shared != 1 {
		t.Errorf("coverage = %+v", cov)
	}
	if len(cov.DataOnly) != 1 || cov.DataOnly[0] != "some.unknown.event" {
		t.Errorf("DataOnly = %v", cov.DataOnly)
	}
	if len(cov.ModelOnly) != 1 || cov.ModelOnly[0] != "misses" {
		t.Errorf("ModelOnly = %v", cov.ModelOnly)
	}
}

func TestEstimatePartialCoverageModelOnlyMetrics(t *testing.T) {
	ens := trainTwoMetric(t)
	// Workload only measured one of the two modeled metrics: the bound
	// comes from that metric alone.
	var w Dataset
	w.Add(mkPlausible("misses", 8)...)
	est, err := estimate(ens, w)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if len(est.PerMetric) != 1 || est.PerMetric[0].Metric != "misses" {
		t.Fatalf("PerMetric = %+v, want just misses", est.PerMetric)
	}
	if est.MaxThroughput != est.PerMetric[0].MeanEstimate {
		t.Errorf("MaxThroughput %g != sole metric estimate %g",
			est.MaxThroughput, est.PerMetric[0].MeanEstimate)
	}
	cov := est.Coverage
	if cov.Shared != 1 || len(cov.ModelOnly) != 1 || cov.ModelOnly[0] != "stalls" {
		t.Errorf("coverage = %+v", cov)
	}
	if len(cov.DataOnly) != 0 {
		t.Errorf("DataOnly = %v, want empty", cov.DataOnly)
	}
}

func TestEstimateNoOverlapReturnsErrNoSamples(t *testing.T) {
	ens := trainTwoMetric(t)
	var w Dataset
	w.Add(mkPlausible("other.event", 4)...)
	_, err := estimate(ens, w)
	if !errors.Is(err, ErrNoSamples) {
		t.Errorf("err = %v, want ErrNoSamples", err)
	}
}

func TestEstimateCorruptSamplesDoNotPoison(t *testing.T) {
	ens := trainTwoMetric(t)
	var clean Dataset
	clean.Add(mkPlausible("stalls", 8)...)
	base, err := estimate(ens, clean)
	if err != nil {
		t.Fatal(err)
	}
	// The same workload plus corrupt rows: invalid samples are dropped by
	// ByMetric, so the estimate must be unchanged and finite.
	dirty := clean
	dirty.Samples = append([]Sample(nil), clean.Samples...)
	dirty.Add(
		Sample{Metric: "stalls", T: math.NaN(), W: 1, M: 1},
		Sample{Metric: "stalls", T: -5, W: 1, M: 1},
		Sample{Metric: "misses", T: 0, W: 0, M: math.Inf(1)},
	)
	got, err := estimate(ens, dirty)
	if err != nil {
		t.Fatalf("Estimate with corrupt rows: %v", err)
	}
	if got.MaxThroughput != base.MaxThroughput {
		t.Errorf("corrupt rows moved the bound: %g -> %g", base.MaxThroughput, got.MaxThroughput)
	}
	if math.IsNaN(got.MeasuredThroughput) {
		t.Error("measured throughput became NaN")
	}
}
