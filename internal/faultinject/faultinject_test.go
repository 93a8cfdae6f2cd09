package faultinject

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"spire/internal/core"
	"spire/internal/engine"
	"spire/internal/ingest"
	"spire/internal/perfstat"
	"spire/internal/sim"
	"spire/internal/uarch"
	"spire/internal/workloads"
)

// The end-to-end fixture: clean simulator collections, a model trained on
// them, and the clean-baseline estimation the fault runs are compared
// against. Collected once — simulation dominates the test runtime.
var (
	setupOnce sync.Once
	setupErr  error
	trainData core.Dataset
	target    core.Dataset
	model     *core.Ensemble
	baseline  *core.Estimation
)

// estimate runs on the shared engine — the same Eq. 1 path every
// production frontend uses, so fault tolerance is asserted against the
// real estimation stack.
func estimate(ens *core.Ensemble, d core.Dataset) (*core.Estimation, error) {
	return engine.Default().Estimate(context.Background(), ens, d)
}

func collect(name string) (core.Dataset, error) {
	spec, err := workloads.ByName(name)
	if err != nil {
		return core.Dataset{}, err
	}
	s, err := sim.New(uarch.Default(), spec.Build(0.3), 3)
	if err != nil {
		return core.Dataset{}, err
	}
	data, _, err := perfstat.Collect(s, name, perfstat.Options{
		IntervalCycles: 10_000,
		MaxCycles:      600_000,
		Multiplex:      true,
	})
	return data, err
}

func setup(t *testing.T) {
	t.Helper()
	setupOnce.Do(func() {
		for _, w := range []string{"fftw", "remhos"} {
			d, err := collect(w)
			if err != nil {
				setupErr = err
				return
			}
			trainData.Merge(d)
		}
		var err error
		if target, err = collect("onnx"); err != nil {
			setupErr = err
			return
		}
		// The baseline goes through the same validate-then-train pipeline
		// the fault runs use, so comparisons isolate the injected faults.
		opts := core.TrainOptions{WorkUnit: "instructions", TimeUnit: "cycles"}
		if model, _, err = core.TrainValidated(trainData, opts, core.ValidateOptions{}); err != nil {
			setupErr = err
			return
		}
		baseline, err = estimate(model, core.Validate(target, core.ValidateOptions{}).Clean)
		setupErr = err
	})
	if setupErr != nil {
		t.Fatal(setupErr)
	}
}

// topSet returns the k lowest-estimate metric names as a set.
func topSet(est *core.Estimation, k int) map[string]bool {
	out := make(map[string]bool)
	for _, m := range est.TopMetrics(k) {
		out[m.Metric] = true
	}
	return out
}

func overlap(a, b map[string]bool) int {
	n := 0
	for m := range a {
		if b[m] {
			n++
		}
	}
	return n
}

// TestBoundedDegradation corrupts the target collection one fault class
// at a time, runs it through validation, and asserts the estimate stays
// close to the clean baseline: the top-3 bottleneck ranking keeps at
// least minOverlap of the clean top-3, and the ensemble throughput bound
// deviates by at most maxDev relative.
func TestBoundedDegradation(t *testing.T) {
	setup(t)
	cases := []struct {
		name       string
		corrupt    func(*Injector, core.Dataset) core.Dataset
		minOverlap int
		maxDev     float64
	}{
		{"drop-intervals", func(in *Injector, d core.Dataset) core.Dataset {
			return in.DropIntervals(d, 0.15)
		}, 3, 0.05},
		{"duplicate-intervals", func(in *Injector, d core.Dataset) core.Dataset {
			return in.DuplicateIntervals(d, 0.15)
		}, 3, 0.05},
		{"counter-wrap", func(in *Injector, d core.Dataset) core.Dataset {
			return in.CounterWrap(d, 0.10)
		}, 3, 0.05},
		{"nan-inject", func(in *Injector, d core.Dataset) core.Dataset {
			return in.NaNInject(d, 0.10)
		}, 3, 0.05},
		{"negative-time", func(in *Injector, d core.Dataset) core.Dataset {
			return in.NegativeTime(d, 0.10)
		}, 3, 0.05},
		{"clock-skew", func(in *Injector, d core.Dataset) core.Dataset {
			return in.ClockSkew(d, 1.0, 0.02)
		}, 3, 0.10},
		// Scaling spikes shift the affected samples' intensity instead of
		// producing a structurally invalid value, so some leak past
		// validation and perturb per-metric means: the ranking may swap
		// neighbors, hence the looser overlap bound. The throughput bound
		// itself stays put because spiked samples move right along the
		// roofline, where estimates plateau.
		{"scaling-spike", func(in *Injector, d core.Dataset) core.Dataset {
			return in.ScalingSpike(d, 0.10)
		}, 2, 0.15},
	}
	cleanTop := topSet(baseline, 3)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			corrupted := tc.corrupt(New(42), target)
			rep := core.Validate(corrupted, core.ValidateOptions{})
			est, err := estimate(model, rep.Clean)
			if err != nil {
				t.Fatalf("estimate on corrupted data: %v", err)
			}
			if got := overlap(topSet(est, 3), cleanTop); got < tc.minOverlap {
				t.Errorf("top-3 overlap = %d, want >= %d (clean %v vs %v)",
					got, tc.minOverlap, baseline.TopMetrics(3), est.TopMetrics(3))
			}
			dev := math.Abs(est.MaxThroughput-baseline.MaxThroughput) / baseline.MaxThroughput
			if dev > tc.maxDev {
				t.Errorf("throughput bound deviation = %.3f, want <= %.3f (%.4f vs clean %.4f)",
					dev, tc.maxDev, est.MaxThroughput, baseline.MaxThroughput)
			}
		})
	}
}

// TestCorruptedTrainingData pushes each structural fault class through
// TrainValidated: the quarantine layer must keep training viable and the
// resulting model must still rank the clean target's top bottleneck in
// its top-3.
func TestCorruptedTrainingData(t *testing.T) {
	setup(t)
	cleanTop1 := baseline.TopMetrics(1)[0].Metric
	faults := map[string]func(*Injector, core.Dataset) core.Dataset{
		"counter-wrap": func(in *Injector, d core.Dataset) core.Dataset {
			return in.CounterWrap(d, 0.10)
		},
		"nan-inject": func(in *Injector, d core.Dataset) core.Dataset {
			return in.NaNInject(d, 0.10)
		},
		"negative-time": func(in *Injector, d core.Dataset) core.Dataset {
			return in.NegativeTime(d, 0.10)
		},
		"drop-intervals": func(in *Injector, d core.Dataset) core.Dataset {
			return in.DropIntervals(d, 0.15)
		},
	}
	for name, corrupt := range faults {
		t.Run(name, func(t *testing.T) {
			bad := corrupt(New(7), trainData)
			opts := core.TrainOptions{WorkUnit: "instructions", TimeUnit: "cycles"}
			ens, rep, err := core.TrainValidated(bad, opts, core.ValidateOptions{})
			if err != nil {
				t.Fatalf("training on corrupted data: %v\n%s", err, rep.Summary())
			}
			est, err := estimate(ens, target)
			if err != nil {
				t.Fatalf("estimate with degraded model: %v", err)
			}
			if !topSet(est, 3)[cleanTop1] {
				t.Errorf("clean top bottleneck %q fell out of degraded top-3 %v",
					cleanTop1, est.TopMetrics(3))
			}
		})
	}
}

// TestCSVFaultsSurviveIngestion hammers the checked-in real-format
// fixture with line-level faults and asserts lenient ingestion still
// yields a trainable dataset while strict mode refuses it.
func TestCSVFaultsSurviveIngestion(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "ingest", "testdata", "skylake_interval.csv"))
	if err != nil {
		t.Fatal(err)
	}
	in := New(99)
	text := in.GarbageLines(in.TruncateLines(string(raw), 0.2), 0.2)

	res, err := ingest.ReadCSV(strings.NewReader(text), ingest.Options{})
	if err != nil {
		t.Fatalf("lenient ingest of faulted CSV: %v", err)
	}
	if res.Stats.Samples < 40 {
		t.Errorf("only %d samples survived (want >= 40)\n%s", res.Stats.Samples, res.Summary())
	}
	if res.Stats.ByClass["garbled"] == 0 {
		t.Errorf("expected garbled diagnostics, got %v", res.Stats.ByClass)
	}
	opts := core.TrainOptions{WorkUnit: "instructions", TimeUnit: "cycles"}
	if _, err := core.Train(res.Dataset, opts); err != nil {
		t.Errorf("surviving samples must train: %v", err)
	}

	if _, err := ingest.ReadCSV(strings.NewReader(text), ingest.Options{Mode: ingest.Strict}); err == nil {
		t.Error("strict mode must reject the faulted CSV")
	}
}

// TestDeterminism: the same seed must reproduce byte-identical
// corruption, and a different seed must not.
func TestDeterminism(t *testing.T) {
	setup(t)
	a := New(1).ScalingSpike(New(1).NaNInject(target, 0.1), 0.1)
	b := New(1).ScalingSpike(New(1).NaNInject(target, 0.1), 0.1)
	if !datasetEqual(a, b) {
		t.Error("same seed produced different corruption")
	}
	c := New(2).ScalingSpike(New(2).NaNInject(target, 0.1), 0.1)
	if datasetEqual(a, c) {
		t.Error("different seeds produced identical corruption")
	}

	text := "1.0,100,,cycles,1,100.00,,\n2.0,200,,instructions,1,100.00,,\n"
	t1 := New(5).TruncateLines(text, 0.9)
	t2 := New(5).TruncateLines(text, 0.9)
	if t1 != t2 {
		t.Error("same seed produced different truncation")
	}
}

// TestFaultsDoNotMutateInput: every dataset fault must copy, never alias,
// the input samples.
func TestFaultsDoNotMutateInput(t *testing.T) {
	setup(t)
	before := append([]core.Sample(nil), target.Samples...)
	in := New(3)
	in.CounterWrap(target, 1.0)
	in.ScalingSpike(target, 1.0)
	in.NaNInject(target, 1.0)
	in.NegativeTime(target, 1.0)
	in.ClockSkew(target, 1.0, 0.5)
	in.DuplicateIntervals(target, 1.0)
	if !reflect.DeepEqual(before, target.Samples) {
		t.Error("fault injection mutated its input dataset")
	}
}

func datasetEqual(a, b core.Dataset) bool {
	if len(a.Samples) != len(b.Samples) {
		return false
	}
	for i := range a.Samples {
		x, y := a.Samples[i], b.Samples[i]
		// NaN-tolerant comparison: NaN == NaN for our purposes.
		if x.Metric != y.Metric || x.Window != y.Window ||
			!eqNaN(x.T, y.T) || !eqNaN(x.W, y.W) || !eqNaN(x.M, y.M) {
			return false
		}
	}
	return true
}

func eqNaN(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}
