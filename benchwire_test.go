package spire_test

// Served-request codec benchmarks and their allocation gate (`make
// bench-gate` via the TestBenchGate prefix): the JSON request decode and
// response encode of one /v1/estimate exchange, the request scanner
// alone, and the workload content key, on a request shaped like the
// serving benchmark's serve-hot traffic — 347 samples over the 68
// modelled PMU events, integer-valued counters — and the router's step
// from body to placement key and upstream frame on a route-cold-shaped
// request. BENCH_wire.json records them; allocs/op is gated exactly,
// ns/op is recorded for context only.

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"spire/internal/cluster"
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

// scanned keeps BenchmarkScanEstimateJSON's result reachable: the router
// keeps the request it scans, and a discarded result of the inlinable
// ScanEstimateBody would be stack-allocated.
var scanned *wire.EstimateRequest

// BenchmarkScanEstimateJSON times the request scanner alone, as the router
// runs it, on BenchmarkWireJSONDecode's body: no body read and none of
// encoding/json's validity scan and value skip, which the shard's decode
// pays around the same scanner.
func BenchmarkScanEstimateJSON(b *testing.B) {
	body, err := json.Marshal(wireBenchRequest())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if scanned, err = wire.ScanEstimateBody(body); err != nil {
			b.Fatal("the scan refused the benchmark body:", err)
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

// BenchmarkWorkloadKey hashes a workload with engine.WorkloadKey: serve
// is BenchmarkWireJSONDecode's 347 samples, each with its own T and W;
// route is 2,000 route-cold-shaped samples whose T and W are shared per
// window, as the serving benchmark's jittered inputs are.
func BenchmarkWorkloadKey(b *testing.B) {
	b.Run("serve", benchWorkloadKeyServe)
	b.Run("route", benchWorkloadKeyRoute)
}

func benchWorkloadKeyServe(b *testing.B) { benchWorkloadKey(wireBenchRequest().Samples)(b) }

func benchWorkloadKeyRoute(b *testing.B) {
	var samples []core.Sample
	for _, iv := range indexBenchIntervals(indexBenchWindows) {
		samples = append(samples, iv...)
	}
	benchWorkloadKey(samples[:2000])(b)
}

func benchWorkloadKey(samples []core.Sample) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchKey = engine.WorkloadKey(samples)
		}
	}
}

// routeBenchRequest is a route-cold-shaped request: 2,000 samples over
// the 68 modelled PMU events, integer-valued counters and 8-digit window
// numbers.
func routeBenchRequest() *wire.EstimateRequest {
	events := pmu.MetricEvents()
	rng := rand.New(rand.NewSource(3))
	req := &wire.EstimateRequest{}
	for i := 0; i < 2000; i++ {
		t := math.Round(50000 * (1 + 0.02*rng.Float64()))
		req.Samples = append(req.Samples, core.Sample{
			Metric: events[i%len(events)].Name,
			T:      t,
			W:      math.Round(t * 2.5 * rng.Float64()),
			M:      math.Round(t * rng.Float64() / 8),
			Window: 10_000_000 + i/len(events),
		})
	}
	return req
}

// routeBenchBody is routeBenchRequest in JSON or SPB1.
func routeBenchBody(bin bool) ([]byte, string) {
	req := routeBenchRequest()
	if bin {
		return wire.AppendEstimateRequest(nil, req), wire.ContentTypeBin
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return body, wire.ContentTypeJSON
}

// benchRouteEstimateBody measures the router's step for one encoding: the
// body read, decoded and keyed, and the upstream body chosen.
func benchRouteEstimateBody(bin bool) func(*testing.B) {
	return func(b *testing.B) {
		body, ct := routeBenchBody(bin)
		rd := bytes.NewReader(body)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd.Reset(body)
			key, up, upCT, err := cluster.RouteEstimateBody(rd, int64(len(body)), ct)
			if err != nil || key == "" || len(up) == 0 || upCT != wire.ContentTypeBin {
				b.Fatalf("routed to %q with %d bytes of %q: %v", key, len(up), upCT, err)
			}
		}
	}
}

func BenchmarkRouteEstimateBody(b *testing.B) {
	b.Run("json", benchRouteEstimateBody(false))
	b.Run("spb1", benchRouteEstimateBody(true))
}

// TestBenchGateWire re-measures the codec and routing benchmarks, best of 3,
// and fails when any one's allocs/op differs from BENCH_wire.json.
func TestBenchGateWire(t *testing.T) {
	rec := gateRecording(t, "BENCH_wire.json")
	for name, bench := range map[string]func(*testing.B){
		"BenchmarkWireJSONDecode":         BenchmarkWireJSONDecode,
		"BenchmarkScanEstimateJSON":       BenchmarkScanEstimateJSON,
		"BenchmarkWireJSONEncode":         BenchmarkWireJSONEncode,
		"BenchmarkWorkloadKey/serve":      benchWorkloadKeyServe,
		"BenchmarkWorkloadKey/route":      benchWorkloadKeyRoute,
		"BenchmarkRouteEstimateBody/json": benchRouteEstimateBody(false),
		"BenchmarkRouteEstimateBody/spb1": benchRouteEstimateBody(true),
	} {
		want, ok := rec.Benchmarks[name]
		if !ok {
			t.Errorf("BENCH_wire.json has no entry for %s", name)
			continue
		}
		bestNs, bestAllocs := bestOfRuns(t, name, bench)
		t.Logf("%s: best %.0f ns/op (recorded %.0f), %.0f allocs/op (recorded %.0f)",
			name, bestNs, want.NsPerOp, bestAllocs, want.AllocsPerOp)
		if bestAllocs != want.AllocsPerOp {
			t.Errorf("%s: best-of-3 %.0f allocs/op, recorded %.0f — re-record BENCH_wire.json if the change is intended",
				name, bestAllocs, want.AllocsPerOp)
		}
	}
}
