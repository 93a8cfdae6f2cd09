package spire_test

// Off-CPU analysis benchmarks and their regression gate (`make
// bench-gate` via the TestBenchGate prefix): wait-for graph construction
// from the lock-convoy MT kernel's event stream, and the full combined
// partition-and-rank pass on top of a roofline estimation. Recorded
// trajectory lives in BENCH_waitgraph.json; unlike the columnar core
// these paths allocate by design (maps, sorted slices), so the gate
// holds allocations to the recorded ceiling instead of zero.

import (
	"testing"

	"spire/internal/analysis"
	"spire/internal/core"
	"spire/internal/waitgraph"
	"spire/internal/workloads"
)

// waitgraphBenchEvents runs the lock-convoy kernel once and returns its
// deterministic scheduler-event stream.
func waitgraphBenchEvents(tb testing.TB) []core.SchedEvent {
	spec, err := workloads.MTByName("lock-convoy")
	if err != nil {
		tb.Fatal(err)
	}
	events, _, err := spec.Run()
	if err != nil {
		tb.Fatal(err)
	}
	return events
}

// waitgraphBenchEstimation is a small fixed roofline ranking for the
// combined pass to merge with the wait verdicts.
func waitgraphBenchEstimation() *core.Estimation {
	return &core.Estimation{
		PerMetric: []core.MetricEstimate{
			{Metric: "llc.miss", MeanEstimate: 2, Samples: 64, MeanIntensity: 1},
			{Metric: "dram.bw", MeanEstimate: 4, Samples: 64, MeanIntensity: 1},
			{Metric: "branch.mispredict", MeanEstimate: 6, Samples: 64, MeanIntensity: 1},
		},
		MaxThroughput: 2,
	}
}

// BenchmarkWaitGraphBuild measures wait-for graph construction alone:
// the event replay, edge aggregation, and per-thread partition.
func BenchmarkWaitGraphBuild(b *testing.B) {
	events := waitgraphBenchEvents(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := waitgraph.Build(events)
		if len(g.Threads) == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkCombinedRanking measures the full off-CPU analysis a serving
// request pays: graph build, knot detection, verdicts, and the merged
// roofline+wait ranking.
func BenchmarkCombinedRanking(b *testing.B) {
	events := waitgraphBenchEvents(b)
	est := waitgraphBenchEstimation()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := analysis.Combine(est, events)
		if err != nil || rep == nil {
			b.Fatalf("combine: %v", err)
		}
	}
}

// TestBenchGateWaitgraph holds both off-CPU benchmarks to the recording
// in BENCH_waitgraph.json: best-of-3 ns/op within the recorded
// tolerance, allocs/op at or below the recorded ceiling (allocation
// counts here are deterministic for a fixed event stream).
func TestBenchGateWaitgraph(t *testing.T) {
	rec := gateRecording(t, "BENCH_waitgraph.json")

	events := waitgraphBenchEvents(t)
	est := waitgraphBenchEstimation()
	cases := []struct {
		name string
		op   func() error
	}{
		{"BenchmarkWaitGraphBuild", func() error {
			waitgraph.Build(events)
			return nil
		}},
		{"BenchmarkCombinedRanking", func() error {
			_, err := analysis.Combine(est, events)
			return err
		}},
	}
	for _, tc := range cases {
		base, ok := rec.Benchmarks[tc.name]
		if !ok {
			t.Fatalf("BENCH_waitgraph.json has no entry for %s", tc.name)
		}
		bestNs, bestAllocs := bestOfRuns(t, tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for j := 0; j < b.N; j++ {
				if err := tc.op(); err != nil {
					b.Fatal(err)
				}
			}
		})
		limit := base.NsPerOp * (1 + rec.Gate.NsPerOpMaxRegression)
		t.Logf("%s gate: best %.0f ns/op vs recorded %.0f (limit %.0f), best %.0f allocs/op (ceiling %.0f)",
			tc.name, bestNs, base.NsPerOp, limit, bestAllocs, base.AllocsPerOp)
		if bestNs > limit {
			t.Errorf("%s regressed: best-of-%d %.0f ns/op exceeds %.0f (recorded %.0f + %.0f%% tolerance)",
				tc.name, gateRuns, bestNs, limit, base.NsPerOp, rec.Gate.NsPerOpMaxRegression*100)
		}
		if bestAllocs > base.AllocsPerOp {
			t.Errorf("%s allocates more: best-of-%d %.0f allocs/op, recorded ceiling %.0f",
				tc.name, gateRuns, bestAllocs, base.AllocsPerOp)
		}
	}
}
