package spire_test

// Served-request codec benchmarks and their allocation gate (`make
// bench-gate` via the TestBenchGate prefix): the JSON request decode and
// response encode of one /v1/estimate exchange, and the workload content
// key, on a request shaped like the serving benchmark's serve-hot
// traffic — 347 samples over the 68 modelled PMU events, integer-valued
// counters. BENCH_wire.json records them; allocs/op is gated exactly,
// ns/op is recorded for context only.

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"

	"spire/internal/core"
	"spire/internal/engine"
	"spire/internal/pmu"
	"spire/internal/wire"
)

// wireBenchRequest builds the benchmark request: five complete
// collection windows of every metric event plus a partial sixth.
func wireBenchRequest() *wire.EstimateRequest {
	events := pmu.MetricEvents()
	rng := rand.New(rand.NewSource(1))
	req := &wire.EstimateRequest{}
	for i := 0; i < 347; i++ {
		t := math.Round(50000 * (1 + 0.02*rng.Float64()))
		req.Samples = append(req.Samples, core.Sample{
			Metric: events[i%len(events)].Name,
			T:      t,
			W:      math.Round(t * 2.5 * rng.Float64()),
			M:      math.Round(t * rng.Float64() / 8),
			Window: 1 + i/len(events),
		})
	}
	return req
}

// wireBenchResponse is the matching response: one per-metric entry per
// event, the shape a flat model returns for wireBenchRequest.
func wireBenchResponse() *wire.EstimateResponse {
	events := pmu.MetricEvents()
	rng := rand.New(rand.NewSource(2))
	est := &core.Estimation{MaxThroughput: 0.5, MeasuredThroughput: 1.25}
	for i, ev := range events {
		mi := 1 / rng.Float64()
		if i%17 == 0 {
			mi = math.Inf(1) // a metric that never fired
		}
		est.PerMetric = append(est.PerMetric, core.MetricEstimate{
			Metric: ev.Name, MeanEstimate: 0.5 + 4*rng.Float64(), Samples: 5, MeanIntensity: mi,
		})
	}
	est.Coverage = core.CoverageReport{ModelMetrics: len(events), DataMetrics: len(events), Shared: len(events)}
	return &wire.EstimateResponse{Model: "sha256:bench", Estimation: est}
}

func BenchmarkWireJSONDecode(b *testing.B) {
	body, err := json.Marshal(wireBenchRequest())
	if err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		if _, err := wire.ReadEstimateRequest(rd, wire.ContentTypeJSON); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireJSONEncode(b *testing.B) {
	res := wireBenchResponse()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wire.EncodeEstimateResponse(res, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// benchKey keeps BenchmarkWorkloadKey's result live.
var benchKey string

func BenchmarkWorkloadKey(b *testing.B) {
	samples := wireBenchRequest().Samples
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchKey = engine.WorkloadKey(samples)
	}
}

// TestBenchGateWire re-measures the three codec benchmarks, best of 3,
// and fails when any one's allocs/op differs from BENCH_wire.json.
func TestBenchGateWire(t *testing.T) {
	if os.Getenv("BENCH_GATE") == "" {
		t.Skip("set BENCH_GATE=1 (make bench-gate) to run the benchmark regression gate")
	}
	raw, err := os.ReadFile("BENCH_wire.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec benchRecording
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	for name, bench := range map[string]func(*testing.B){
		"BenchmarkWireJSONDecode": BenchmarkWireJSONDecode,
		"BenchmarkWireJSONEncode": BenchmarkWireJSONEncode,
		"BenchmarkWorkloadKey":    BenchmarkWorkloadKey,
	} {
		want, ok := rec.Benchmarks[name]
		if !ok {
			t.Errorf("BENCH_wire.json has no entry for %s", name)
			continue
		}
		bestNs, bestAllocs := math.Inf(1), math.Inf(1)
		for i := 0; i < 3; i++ {
			r := testing.Benchmark(bench)
			bestNs = math.Min(bestNs, float64(r.NsPerOp()))
			bestAllocs = math.Min(bestAllocs, float64(r.AllocsPerOp()))
		}
		t.Logf("%s: best %.0f ns/op (recorded %.0f), %.0f allocs/op (recorded %.0f)",
			name, bestNs, want.NsPerOp, bestAllocs, want.AllocsPerOp)
		if bestAllocs != want.AllocsPerOp {
			t.Errorf("%s: best-of-3 %.0f allocs/op, recorded %.0f — re-record BENCH_wire.json if the change is intended",
				name, bestAllocs, want.AllocsPerOp)
		}
	}
}
