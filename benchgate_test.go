package spire_test

// The benchmark regression gate behind `make bench-gate`: re-measures
// the columnar steady state (the timed region of BenchmarkBatchEstimate
// — reused Estimation, caller-held index) and compares it
// against the recording in BENCH_core_columnar.json. Allocations are
// compared exactly: the zero-allocation contract is binary, one alloc
// per op is a regression however fast it runs. Time gets the recorded
// tolerance, applied to the best of several runs so scheduler noise on
// a busy runner doesn't fail an honest build.

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"

	"spire/internal/core"
)

type benchRecording struct {
	Benchmarks map[string]struct {
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp float64 `json:"allocs_per_op"`
	} `json:"benchmarks"`
	Gate struct {
		Benchmark            string  `json:"benchmark"`
		NsPerOpMaxRegression float64 `json:"ns_per_op_max_regression"`
		AllocsPerOpMax       float64 `json:"allocs_per_op_max"`
	} `json:"gate"`
}

// gateRuns is how many times each gate re-measures its benchmark.
const gateRuns = 3

// gateRecording skips the test unless BENCH_GATE is set, then reads the
// BENCH_*.json recording at path.
func gateRecording(t *testing.T, path string) benchRecording {
	t.Helper()
	if os.Getenv("BENCH_GATE") == "" {
		t.Skip("set BENCH_GATE=1 (make bench-gate) to run the benchmark regression gate")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec benchRecording
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// bestOfRuns runs bench gateRuns times and returns the lowest ns/op and
// the lowest allocs/op. The minimum over independent runs is the
// measurement least polluted by preemption; allocs/op must be at the
// floor in every run's best case too.
func bestOfRuns(t *testing.T, name string, bench func(*testing.B)) (bestNs, bestAllocs float64) {
	t.Helper()
	bestNs, bestAllocs = math.Inf(1), math.Inf(1)
	for i := 0; i < gateRuns; i++ {
		r := testing.Benchmark(bench)
		ns, allocs := float64(r.NsPerOp()), float64(r.AllocsPerOp())
		bestNs, bestAllocs = math.Min(bestNs, ns), math.Min(bestAllocs, allocs)
		t.Logf("%s run %d: %.0f ns/op, %.0f allocs/op (N=%d)", name, i+1, ns, allocs, r.N)
	}
	return bestNs, bestAllocs
}

func TestBenchGate(t *testing.T) {
	rec := gateRecording(t, "BENCH_core_columnar.json")
	base, ok := rec.Benchmarks[rec.Gate.Benchmark]
	if !ok {
		t.Fatalf("recording has no entry for gate benchmark %q", rec.Gate.Benchmark)
	}

	s := benchSession(t)
	ens, err := s.Ensemble()
	if err != nil {
		t.Fatal(err)
	}
	runs, err := s.TestRuns()
	if err != nil {
		t.Fatal(err)
	}
	ix := core.IndexWorkload(runs[0].Data)
	ctx := context.Background()
	opts := core.EstimateOptions{}
	var est core.Estimation
	if err := ens.BatchEstimateInto(ctx, ix, opts, &est); err != nil {
		t.Fatal(err)
	}

	bestNs, bestAllocs := bestOfRuns(t, rec.Gate.Benchmark, func(b *testing.B) {
		b.ReportAllocs()
		for j := 0; j < b.N; j++ {
			if err := ens.BatchEstimateInto(ctx, ix, opts, &est); err != nil {
				b.Fatal(err)
			}
		}
	})

	limit := base.NsPerOp * (1 + rec.Gate.NsPerOpMaxRegression)
	t.Logf("gate: best %.0f ns/op vs recorded %.0f (limit %.0f), best %.0f allocs/op (max %.0f)",
		bestNs, base.NsPerOp, limit, bestAllocs, rec.Gate.AllocsPerOpMax)
	if bestNs > limit {
		t.Errorf("%s regressed: best-of-%d %.0f ns/op exceeds %.0f (recorded %.0f + %.0f%% tolerance)",
			rec.Gate.Benchmark, gateRuns, bestNs, limit, base.NsPerOp, rec.Gate.NsPerOpMaxRegression*100)
	}
	if bestAllocs > rec.Gate.AllocsPerOpMax {
		t.Errorf("%s allocates: best-of-%d %.0f allocs/op, want <= %.0f — the zero-allocation steady state is broken",
			rec.Gate.Benchmark, gateRuns, bestAllocs, rec.Gate.AllocsPerOpMax)
	}
}

// TestBenchGateHierarchy holds the hierarchical estimation steady state
// (BenchmarkHierarchicalEstimate: same columnar loop plus binding-level
// resolution and surface evaluation per op) to the flat recording in
// BENCH_core_columnar.json — the hierarchy must ride the hot path within
// the recorded tolerance and without allocating. BENCH_hierarchy.json
// documents the recorded trajectory point.
func TestBenchGateHierarchy(t *testing.T) {
	rec := gateRecording(t, "BENCH_core_columnar.json")
	base, ok := rec.Benchmarks["BenchmarkBatchEstimate"]
	if !ok {
		t.Fatal("recording has no BenchmarkBatchEstimate entry")
	}

	s := benchSession(t)
	ens, err := s.Ensemble()
	if err != nil {
		t.Fatal(err)
	}
	hier := hierarchicalEnsemble(ens)
	runs, err := s.TestRuns()
	if err != nil {
		t.Fatal(err)
	}
	ix := core.IndexWorkload(runs[0].Data)
	ctx := context.Background()
	opts := core.EstimateOptions{}
	var est core.Estimation
	if err := hier.BatchEstimateInto(ctx, ix, opts, &est); err != nil {
		t.Fatal(err)
	}
	if est.Hierarchy == nil {
		t.Fatal("session workload did not produce a hierarchical verdict")
	}

	bestNs, bestAllocs := bestOfRuns(t, "BenchmarkHierarchicalEstimate", func(b *testing.B) {
		b.ReportAllocs()
		for j := 0; j < b.N; j++ {
			if err := hier.BatchEstimateInto(ctx, ix, opts, &est); err != nil {
				b.Fatal(err)
			}
		}
	})

	limit := base.NsPerOp * (1 + rec.Gate.NsPerOpMaxRegression)
	t.Logf("gate: best %.0f ns/op vs flat recording %.0f (limit %.0f), best %.0f allocs/op (max 0)",
		bestNs, base.NsPerOp, limit, bestAllocs)
	if bestNs > limit {
		t.Errorf("BenchmarkHierarchicalEstimate regressed: best-of-%d %.0f ns/op exceeds %.0f (flat recording %.0f + %.0f%% tolerance)",
			gateRuns, bestNs, limit, base.NsPerOp, rec.Gate.NsPerOpMaxRegression*100)
	}
	if bestAllocs > 0 {
		t.Errorf("BenchmarkHierarchicalEstimate allocates: best-of-%d %.0f allocs/op — the hierarchy broke the zero-allocation steady state",
			gateRuns, bestAllocs)
	}
}
