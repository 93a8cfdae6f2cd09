package engine

// Differential suite for the unified estimation engine: the pre-refactor
// serial implementation of the paper's Eq. 1 merge (the loop that lived
// in core's Ensemble.Estimate before internal/engine existed) is kept
// here, verbatim, as the reference. Engine.Estimate must produce
// byte-identical JSON against it — across the golden model under
// internal/core/testdata and thousands of randomized model/workload pairs
// in the style of core's oracle-driven fitting suite. Any divergence is a regression in the
// unified path.

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"spire/internal/core"
	"spire/internal/stats"
)

// referenceEstimate is the pre-refactor serial Eq. 1 implementation,
// copied from core.Ensemble.Estimate as of the commit that introduced
// internal/engine, with one change: metrics iterate in sorted-name order
// instead of Go map order. The old code's only order dependence was the
// float accumulation of the measured-throughput sums, which made its
// last-ULP output depend on map iteration order run to run; the sorted
// order is the deterministic member of that family and is exactly the
// order the unified merge uses.
func referenceEstimate(e *core.Ensemble, workload core.Dataset) (*core.Estimation, error) {
	groups := workload.ByMetric()
	est := &core.Estimation{MaxThroughput: math.Inf(1)}
	est.Coverage = referenceCoverage(e, groups)

	metrics := make([]string, 0, len(groups))
	for metric := range groups {
		metrics = append(metrics, metric)
	}
	sort.Strings(metrics)

	type measureKey struct {
		t, w   float64
		window int
	}
	var totT, totW float64
	seenMeasured := make(map[measureKey]bool)
	for _, metric := range metrics {
		samples := groups[metric]
		r, ok := e.Rooflines[metric]
		if !ok {
			continue
		}
		var ws []stats.Weighted
		var intensityNum, intensityDen float64
		infIntensity := false
		for _, s := range samples {
			p := r.Eval(s.Intensity())
			if math.IsNaN(p) {
				continue
			}
			ws = append(ws, stats.Weighted{Value: p, Weight: s.T})
			if math.IsInf(s.Intensity(), 1) {
				infIntensity = true
			} else {
				intensityNum += s.T * s.Intensity()
				intensityDen += s.T
			}
			k := measureKey{t: s.T, w: s.W, window: s.Window}
			if !seenMeasured[k] {
				seenMeasured[k] = true
				totT += s.T
				totW += s.W
			}
		}
		if len(ws) == 0 {
			continue
		}
		mean, err := stats.WeightedMean(ws)
		if err != nil {
			continue
		}
		me := core.MetricEstimate{
			Metric:       metric,
			MeanEstimate: mean,
			Samples:      len(ws),
		}
		switch {
		case intensityDen > 0:
			me.MeanIntensity = intensityNum / intensityDen
		case infIntensity:
			me.MeanIntensity = math.Inf(1)
		default:
			me.MeanIntensity = math.NaN()
		}
		est.PerMetric = append(est.PerMetric, me)
		if mean < est.MaxThroughput {
			est.MaxThroughput = mean
		}
	}
	if len(est.PerMetric) == 0 {
		return nil, core.ErrNoSamples
	}
	sort.Slice(est.PerMetric, func(i, j int) bool {
		a, b := est.PerMetric[i], est.PerMetric[j]
		if a.MeanEstimate != b.MeanEstimate {
			return a.MeanEstimate < b.MeanEstimate
		}
		return a.Metric < b.Metric
	})
	if totT > 0 {
		est.MeasuredThroughput = totW / totT
	} else {
		est.MeasuredThroughput = math.NaN()
	}
	return est, nil
}

// referenceCoverage mirrors the old serial path's coverage computation.
func referenceCoverage(e *core.Ensemble, groups map[string][]core.Sample) core.CoverageReport {
	cov := core.CoverageReport{
		ModelMetrics: len(e.Rooflines),
		DataMetrics:  len(groups),
	}
	for metric := range groups {
		if _, ok := e.Rooflines[metric]; ok {
			cov.Shared++
		} else {
			cov.DataOnly = append(cov.DataOnly, metric)
		}
	}
	for metric := range e.Rooflines {
		if _, ok := groups[metric]; !ok {
			cov.ModelOnly = append(cov.ModelOnly, metric)
		}
	}
	sort.Strings(cov.DataOnly)
	sort.Strings(cov.ModelOnly)
	return cov
}

// estJSON marshals an estimation through core's total JSON encoding, the
// same bytes `spire analyze -json` and /v1/estimate emit.
func estJSON(t *testing.T, est *core.Estimation) string {
	t.Helper()
	raw, err := json.Marshal(est)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// checkByteIdentical pins the engine against the reference on one
// model/workload pair.
func checkByteIdentical(t *testing.T, e *Engine, ens *core.Ensemble, d core.Dataset, tag string) {
	t.Helper()
	want, werr := referenceEstimate(ens, d)
	got, gerr := e.Estimate(context.Background(), ens, d)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%s: reference err=%v, engine err=%v", tag, werr, gerr)
	}
	if werr != nil {
		return
	}
	wantJSON := estJSON(t, want)
	if gotJSON := estJSON(t, got); gotJSON != wantJSON {
		t.Fatalf("%s: engine diverges from pre-refactor serial output\ngot:  %s\nwant: %s",
			tag, gotJSON, wantJSON)
	}
}

// TestDifferentialGoldenModel pins the refactor against the checked-in
// golden model and dataset under internal/core/testdata.
func TestDifferentialGoldenModel(t *testing.T) {
	mf, err := os.Open(filepath.Join("..", "core", "testdata", "golden_model.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	ens, err := core.LoadEnsemble(mf)
	if err != nil {
		t.Fatal(err)
	}
	df, err := os.Open(filepath.Join("..", "core", "testdata", "golden_dataset.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	d, err := core.ReadDataset(df)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{})
	checkByteIdentical(t, e, ens, d, "golden")

	// Per-window slices too — the timeline pattern.
	byWindow := make(map[int][]core.Sample)
	for _, s := range d.Samples {
		byWindow[s.Window] = append(byWindow[s.Window], s)
	}
	for w, samples := range byWindow {
		var wd core.Dataset
		wd.Add(samples...)
		checkByteIdentical(t, e, ens, wd, "golden-window")
		_ = w
	}
}

// randEstimationModel trains an ensemble on a randomized multi-metric
// dataset (grid mode provokes duplicates, ties and +Inf intensities, the
// same adversarial families core's oracle-driven fitting suite uses).
func randEstimationModel(t *testing.T, rng *rand.Rand) *core.Ensemble {
	t.Helper()
	nMetrics := 1 + rng.Intn(5)
	var d core.Dataset
	for m := 0; m < nMetrics; m++ {
		metric := string(rune('a' + m))
		n := 3 + rng.Intn(40)
		grid := rng.Intn(2) == 0
		for i := 0; i < n; i++ {
			var s core.Sample
			if grid {
				s = core.Sample{
					Metric: metric,
					T:      float64(1 + rng.Intn(4)),
					W:      float64(rng.Intn(24)),
					M:      float64(rng.Intn(8)),
				}
			} else {
				s = core.Sample{
					Metric: metric,
					T:      1 + rng.Float64()*4,
					W:      rng.Float64() * 24,
					M:      rng.Float64() * 8,
				}
			}
			d.Add(s)
		}
	}
	ens, err := core.Train(d, core.TrainOptions{})
	if err != nil {
		return nil
	}
	return ens
}

// randEstimationWorkload draws a workload over a superset of the model's
// metric alphabet (some metrics unmodeled), with window tags, shared
// (T, W) periods across metrics, invalid samples, and zero-M rows.
func randEstimationWorkload(rng *rand.Rand) core.Dataset {
	var d core.Dataset
	nPeriods := 1 + rng.Intn(12)
	alphabet := []string{"a", "b", "c", "d", "e", "f", "zz"}
	for p := 0; p < nPeriods; p++ {
		T := float64(1 + rng.Intn(5))
		W := float64(rng.Intn(30))
		window := 0
		if rng.Intn(2) == 0 {
			window = 1 + p/2
		}
		for _, metric := range alphabet {
			if rng.Intn(3) == 0 {
				continue
			}
			s := core.Sample{Metric: metric, T: T, W: W, M: float64(rng.Intn(9)), Window: window}
			switch rng.Intn(12) {
			case 0:
				s.T = -s.T // invalid
			case 1:
				s.M = 0 // +Inf or NaN intensity
			case 2:
				s.W = math.NaN() // invalid
			}
			d.Add(s)
		}
	}
	return d
}

// TestDifferentialRandomized runs the randomized estimation differential:
// >= 1000 model/workload pairs, byte-identical JSON among the reference
// serial path, the Estimate shim, and the engine. Run under -race in the
// verify gate.
func TestDifferentialRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	e := New(Options{})
	pairs := 0
	for pairs < 1000 {
		ens := randEstimationModel(t, rng)
		if ens == nil {
			continue
		}
		d := randEstimationWorkload(rng)
		checkByteIdentical(t, e, ens, d, "randomized")
		pairs++
	}
}
