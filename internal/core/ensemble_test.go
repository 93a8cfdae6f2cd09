package core

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// trainTwoMetricEnsemble builds a model where metric "slow" bounds
// throughput at 1 and metric "fast" at 10, over a wide intensity range.
func trainTwoMetricEnsemble(t *testing.T) *Ensemble {
	t.Helper()
	var d Dataset
	for i := 1.0; i <= 64; i *= 2 {
		d.Add(Sample{Metric: "slow", T: 1, W: 1, M: 1 / i})
		d.Add(Sample{Metric: "fast", T: 1, W: 10, M: 10 / i})
	}
	e, err := Train(d, TrainOptions{WorkUnit: "instructions", TimeUnit: "cycles"})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestTrainBasics(t *testing.T) {
	e := trainTwoMetricEnsemble(t)
	if got := e.Metrics(); len(got) != 2 || got[0] != "fast" || got[1] != "slow" {
		t.Fatalf("Metrics = %v", got)
	}
	for _, m := range e.Metrics() {
		if err := e.Rooflines[m].CheckInvariants(); err != nil {
			t.Errorf("%s: %v", m, err)
		}
	}
	if e.WorkUnit != "instructions" || e.TimeUnit != "cycles" {
		t.Errorf("units not recorded: %q/%q", e.WorkUnit, e.TimeUnit)
	}
}

func TestTrainEmpty(t *testing.T) {
	if _, err := Train(Dataset{}, TrainOptions{}); err != ErrNoSamples {
		t.Errorf("err = %v, want ErrNoSamples", err)
	}
}

func TestTrainMinSamples(t *testing.T) {
	var d Dataset
	d.Add(Sample{Metric: "rare", T: 1, W: 1, M: 1})
	for i := 0; i < 5; i++ {
		d.Add(Sample{Metric: "common", T: 1, W: 1, M: 1})
	}
	e, err := Train(d, TrainOptions{MinSamples: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Rooflines["rare"]; ok {
		t.Error("metric below MinSamples should be dropped")
	}
	if _, ok := e.Rooflines["common"]; !ok {
		t.Error("metric above MinSamples should be kept")
	}
}

func TestEstimateMinOfMeans(t *testing.T) {
	e := trainTwoMetricEnsemble(t)
	var w Dataset
	w.Add(
		Sample{Metric: "slow", T: 2, W: 1.6, M: 0.2}, // I = 8
		Sample{Metric: "fast", T: 2, W: 1.6, M: 0.4}, // I = 4
	)
	est, err := estimate(e, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.PerMetric) != 2 {
		t.Fatalf("PerMetric = %v", est.PerMetric)
	}
	// Ranking is ascending, so the binding metric comes first.
	if est.PerMetric[0].Metric != "slow" {
		t.Errorf("top metric = %s, want slow", est.PerMetric[0].Metric)
	}
	if est.MaxThroughput != est.PerMetric[0].MeanEstimate {
		t.Errorf("MaxThroughput %g != lowest per-metric mean %g",
			est.MaxThroughput, est.PerMetric[0].MeanEstimate)
	}
	for _, m := range est.PerMetric {
		if est.MaxThroughput > m.MeanEstimate {
			t.Errorf("ensemble min %g exceeds per-metric mean %g (%s)",
				est.MaxThroughput, m.MeanEstimate, m.Metric)
		}
	}
	// Measured throughput dedupes the shared (T, W) period: 1.6/2.
	if math.Abs(est.MeasuredThroughput-0.8) > 1e-12 {
		t.Errorf("MeasuredThroughput = %g, want 0.8", est.MeasuredThroughput)
	}
}

func TestEstimateTimeWeighting(t *testing.T) {
	// One metric, two samples with very different T: the long sample
	// must dominate the mean (paper Eq. 1).
	var train Dataset
	for i := 1.0; i <= 32; i *= 2 {
		train.Add(Sample{Metric: "m", T: 1, W: i, M: 1})
	}
	e, err := Train(train, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var w Dataset
	w.Add(
		Sample{Metric: "m", T: 100, W: 100, M: 100}, // I = 1, low estimate
		Sample{Metric: "m", T: 1, W: 32, M: 1},      // I = 32, high estimate
	)
	est, err := estimate(e, w)
	if err != nil {
		t.Fatal(err)
	}
	lowEst := e.Rooflines["m"].Eval(1)
	highEst := e.Rooflines["m"].Eval(32)
	want := (100*lowEst + 1*highEst) / 101
	got := est.PerMetric[0].MeanEstimate
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("TWA = %g, want %g (low=%g high=%g)", got, want, lowEst, highEst)
	}
}

func TestEstimateUnknownMetric(t *testing.T) {
	e := trainTwoMetricEnsemble(t)
	var w Dataset
	w.Add(Sample{Metric: "mystery", T: 1, W: 1, M: 1})
	if _, err := estimate(e, w); err != ErrNoSamples {
		t.Errorf("err = %v, want ErrNoSamples", err)
	}
}

func TestEstimateSkipsInvalidSamples(t *testing.T) {
	e := trainTwoMetricEnsemble(t)
	var w Dataset
	w.Add(
		Sample{Metric: "slow", T: 0, W: 1, M: 1}, // invalid
		Sample{Metric: "slow", T: 1, W: 1, M: 1},
	)
	est, err := estimate(e, w)
	if err != nil {
		t.Fatal(err)
	}
	if est.PerMetric[0].Samples != 1 {
		t.Errorf("Samples = %d, want 1 (invalid dropped)", est.PerMetric[0].Samples)
	}
}

func TestTopMetricsAndRank(t *testing.T) {
	e := trainTwoMetricEnsemble(t)
	var w Dataset
	w.Add(
		Sample{Metric: "slow", T: 1, W: 0.8, M: 0.1},
		Sample{Metric: "fast", T: 1, W: 0.8, M: 0.2},
	)
	est, err := estimate(e, w)
	if err != nil {
		t.Fatal(err)
	}
	top := est.TopMetrics(1)
	if len(top) != 1 || top[0].Metric != "slow" {
		t.Errorf("TopMetrics(1) = %v", top)
	}
	if got := est.TopMetrics(10); len(got) != 2 {
		t.Errorf("TopMetrics(10) should clamp to 2, got %d", len(got))
	}
	if r := est.Rank("slow"); r != 1 {
		t.Errorf("Rank(slow) = %d, want 1", r)
	}
	if r := est.Rank("fast"); r != 2 {
		t.Errorf("Rank(fast) = %d, want 2", r)
	}
	if r := est.Rank("nope"); r != 0 {
		t.Errorf("Rank(nope) = %d, want 0", r)
	}
}

func TestEstimateInfIntensityWorkload(t *testing.T) {
	e := trainTwoMetricEnsemble(t)
	var w Dataset
	w.Add(Sample{Metric: "slow", T: 1, W: 1, M: 0}) // I = +Inf
	est, err := estimate(e, w)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(est.PerMetric[0].MeanIntensity, 1) {
		t.Errorf("MeanIntensity = %g, want +Inf", est.PerMetric[0].MeanIntensity)
	}
	if est.PerMetric[0].MeanEstimate <= 0 {
		t.Errorf("estimate at +Inf should be the tail bound, got %g", est.PerMetric[0].MeanEstimate)
	}
}

// TestEnsembleRooflineEval: a trained ensemble's rooflines evaluate single
// intensities directly, and an unmodeled metric has none.
func TestEnsembleRooflineEval(t *testing.T) {
	e := trainTwoMetricEnsemble(t)
	if v := e.Rooflines["slow"].Eval(64); math.Abs(v-1) > 1e-9 {
		t.Errorf("Rooflines[slow].Eval(64) = %g, want 1", v)
	}
	if r := e.Rooflines["nope"]; r != nil {
		t.Errorf("Rooflines[nope] = %+v, want none", r)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	e := trainTwoMetricEnsemble(t)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEnsemble(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Rooflines) != len(e.Rooflines) {
		t.Fatalf("roofline count mismatch: %d vs %d", len(loaded.Rooflines), len(e.Rooflines))
	}
	for name, orig := range e.Rooflines {
		got, ok := loaded.Rooflines[name]
		if !ok {
			t.Fatalf("missing roofline %s after load", name)
		}
		for _, i := range []float64{0, 0.5, 1, 7, 64, 1000} {
			a, b := orig.Eval(i), got.Eval(i)
			if math.Abs(a-b) > 1e-12 {
				t.Errorf("%s: Eval(%g) differs after round trip: %g vs %g", name, i, a, b)
			}
		}
	}
}

func TestLoadEnsembleRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":       "hello",
		"wrong format":   `{"format":"other","version":1,"model":{"rooflines":{"m":{"metric":"m","left":[{"X":1,"Y":1}]}}}}`,
		"wrong version":  `{"format":"spire-ensemble","version":99,"model":{"rooflines":{"m":{"metric":"m","left":[{"X":1,"Y":1}]}}}}`,
		"empty model":    `{"format":"spire-ensemble","version":1,"model":{"rooflines":{}}}`,
		"empty roofline": `{"format":"spire-ensemble","version":1,"model":{"rooflines":{"m":{"metric":"m"}}}}`,
	}
	for name, payload := range cases {
		if _, err := LoadEnsemble(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: expected load error", name)
		}
	}
}

func TestDatasetHelpers(t *testing.T) {
	var d Dataset
	d.Add(
		Sample{Metric: "b", T: 1, W: 1, M: 1},
		Sample{Metric: "a", T: 1, W: 1, M: 1},
		Sample{Metric: "a", T: 0, W: 1, M: 1}, // invalid
	)
	if got := d.Len(); got != 3 {
		t.Errorf("Len = %d", got)
	}
	if m := d.Metrics(); len(m) != 2 || m[0] != "a" || m[1] != "b" {
		t.Errorf("Metrics = %v", m)
	}
	groups := d.ByMetric()
	if len(groups["a"]) != 1 {
		t.Errorf("invalid sample not dropped: %v", groups["a"])
	}
	var other Dataset
	other.Add(Sample{Metric: "c", T: 1, W: 1, M: 1})
	d.Merge(other)
	if d.Len() != 4 {
		t.Errorf("Merge: Len = %d, want 4", d.Len())
	}
	f := d.Filter(func(s Sample) bool { return s.Metric == "a" })
	if f.Len() != 2 {
		t.Errorf("Filter: Len = %d, want 2", f.Len())
	}
	roundTrip := func(d Dataset) Dataset {
		var buf bytes.Buffer
		if err := WriteDataset(&buf, d); err != nil {
			t.Fatal(err)
		}
		out, err := ReadDataset(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got := roundTrip(d); got.Len() != d.Len() {
		t.Errorf("dataset round trip lost samples: %d vs %d", got.Len(), d.Len())
	}
	if _, err := ReadDataset(strings.NewReader("garbage")); err == nil {
		t.Error("expected dataset decode error")
	}
}

func TestMeasuredThroughputCountsDistinctWindows(t *testing.T) {
	e := trainTwoMetricEnsemble(t)
	var w Dataset
	// Two windows with identical (T, W): both periods must count, so the
	// measured throughput is still W/T but over both (a regression test
	// for the value-based dedupe collapsing distinct periods).
	w.Add(
		Sample{Metric: "slow", T: 2, W: 1.6, M: 0.2, Window: 1},
		Sample{Metric: "fast", T: 2, W: 1.6, M: 0.4, Window: 1},
		Sample{Metric: "slow", T: 2, W: 1.6, M: 0.3, Window: 2},
		Sample{Metric: "fast", T: 2, W: 1.6, M: 0.5, Window: 2},
	)
	est, err := estimate(e, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.MeasuredThroughput-0.8) > 1e-12 {
		t.Errorf("MeasuredThroughput = %g, want 0.8", est.MeasuredThroughput)
	}
	// Per-metric sample counts must see both windows.
	for _, m := range est.PerMetric {
		if m.Samples != 2 {
			t.Errorf("%s: samples = %d, want 2", m.Metric, m.Samples)
		}
	}
}
