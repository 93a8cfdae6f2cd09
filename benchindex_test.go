package spire_test

// Workload index benchmarks and their allocation gate (`make bench-gate`
// via the TestBenchGate prefix): core.IndexWorkload on a cold,
// route-cold-shaped request, and one sliding-window step of the stream
// path (Add one interval, EvictBefore, Snapshot). BENCH_index.json
// records them; allocs/op is gated exactly, ns/op is recorded for
// context only.

import (
	"math"
	"math/rand"
	"testing"

	"spire/internal/core"
	"spire/internal/pmu"
)

const (
	indexBenchWindows = 30 // windows of the paper-shaped request
	indexBenchSpan    = 8  // intervals a BenchmarkWindowSnapshot window holds
)

// indexBenchIntervals returns n perf-stat intervals of every modelled
// metric event, windows 10,000,000 on. As in paper §III (and the serving
// benchmark's jittered inputs), every sample of an interval shares that
// interval's T and W; M is per sample.
func indexBenchIntervals(n int) [][]core.Sample {
	events := pmu.MetricEvents()
	rng := rand.New(rand.NewSource(4))
	out := make([][]core.Sample, n)
	for win := range out {
		t := math.Round(50000 * (1 + 0.02*(2*rng.Float64()-1)))
		w := math.Round(t * 2.5 * rng.Float64())
		for _, ev := range events {
			out[win] = append(out[win], core.Sample{
				Metric: ev.Name, T: t, W: w,
				M:      math.Round(t * rng.Float64() / 8),
				Window: 10_000_000 + win,
			})
		}
	}
	return out
}

// benchIndex keeps the index benchmarks' results live.
var benchIndex *core.WorkloadIndex

// benchIndexWorkload times IndexWorkload over d.
func benchIndexWorkload(d core.Dataset) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchIndex = core.IndexWorkload(d)
		}
	}
}

// BenchmarkIndexWorkload indexes a cold request: paper has T and W shared
// per window (2,040 samples, 68 metrics, 30 windows), unshared is the
// router benchmark's request, whose every sample has its own T and W.
func BenchmarkIndexWorkload(b *testing.B) {
	b.Run("paper", benchIndexPaper)
	b.Run("unshared", benchIndexUnshared)
}

func benchIndexPaper(b *testing.B) {
	var d core.Dataset
	for _, iv := range indexBenchIntervals(indexBenchWindows) {
		d.Samples = append(d.Samples, iv...)
	}
	benchIndexWorkload(d)(b)
}

func benchIndexUnshared(b *testing.B) {
	benchIndexWorkload(core.Dataset{Samples: routeBenchRequest().Samples})(b)
}

// BenchmarkWindowSnapshot times one step of a sliding window of
// indexBenchSpan intervals: Add the next interval, evict the oldest, and
// publish a snapshot.
func BenchmarkWindowSnapshot(b *testing.B) {
	ivs := indexBenchIntervals(indexBenchWindows)
	ix := core.NewIncrementalIndex()
	for _, iv := range ivs[:indexBenchSpan] {
		ix.Add(iv...)
	}
	next := make([]core.Sample, len(ivs[0]))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		win := 10_000_000 + indexBenchSpan + i
		copy(next, ivs[(indexBenchSpan+i)%len(ivs)])
		for j := range next {
			next[j].Window = win
		}
		ix.Add(next...)
		ix.EvictBefore(win - indexBenchSpan + 1)
		benchIndex = ix.Snapshot()
	}
}

// TestBenchGateIndex re-measures the index benchmarks, best of 3, and
// fails when any one's allocs/op differs from BENCH_index.json.
func TestBenchGateIndex(t *testing.T) {
	rec := gateRecording(t, "BENCH_index.json")
	for name, bench := range map[string]func(*testing.B){
		"BenchmarkIndexWorkload/paper":    benchIndexPaper,
		"BenchmarkIndexWorkload/unshared": benchIndexUnshared,
		"BenchmarkWindowSnapshot":         BenchmarkWindowSnapshot,
	} {
		want, ok := rec.Benchmarks[name]
		if !ok {
			t.Errorf("BENCH_index.json has no entry for %s", name)
			continue
		}
		bestNs, bestAllocs := bestOfRuns(t, name, bench)
		t.Logf("%s: best %.0f ns/op (recorded %.0f), %.0f allocs/op (recorded %.0f)",
			name, bestNs, want.NsPerOp, bestAllocs, want.AllocsPerOp)
		if bestAllocs != want.AllocsPerOp {
			t.Errorf("%s: best-of-3 %.0f allocs/op, recorded %.0f — re-record BENCH_index.json if the change is intended",
				name, bestAllocs, want.AllocsPerOp)
		}
	}
}
