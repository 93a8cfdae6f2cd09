// Package testutil is the shared scaffolding for SPIRE's service-level
// test suites: deterministic model training, canned workloads,
// start-a-server-on-an-ephemeral-port, golden-file comparison,
// Prometheus-exposition scraping, and SSE draining. It exists because
// internal/serve, internal/client, internal/cluster and the cmd/spire
// e2e suite all grew private copies of the same helpers.
//
// The package deliberately imports only internal/core (plus the
// standard library), never the serving packages, so in-package tests of
// internal/serve and friends can use it without an import cycle.
package testutil

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"spire/internal/core"
)

// TrainModel builds a small deterministic two-metric ensemble; scale
// perturbs the sample values so different scales give different
// content-addressed fingerprints. It returns the ensemble and its
// canonical Save encoding (a valid /v1/models upload body).
func TrainModel(t testing.TB, scale float64) (*core.Ensemble, []byte) {
	t.Helper()
	var d core.Dataset
	for _, metric := range []string{"m1", "m2"} {
		for i := 1; i <= 16; i++ {
			d.Add(core.Sample{
				Metric: metric,
				T:      1,
				W:      float64(i) * scale,
				M:      float64(17 - i),
				Window: i,
			})
		}
	}
	ens, err := core.Train(d, core.TrainOptions{WorkUnit: "instructions", TimeUnit: "cycles"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ens.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return ens, buf.Bytes()
}

// Samples is a small workload overlapping the TrainModel metrics,
// including an unknown metric and an invalid sample that indexing drops.
func Samples() []core.Sample {
	return []core.Sample{
		{Metric: "m1", T: 1, W: 4, M: 2, Window: 1},
		{Metric: "m2", T: 1, W: 4, M: 8, Window: 1},
		{Metric: "m1", T: 2, W: 10, M: 3, Window: 2},
		{Metric: "unknown.metric", T: 1, W: 1, M: 1, Window: 1},
		{Metric: "m2", T: -1, W: 1, M: 1}, // invalid: dropped by indexing
	}
}

// Workload builds the k-th deterministic 400-sample soak workload;
// distinct k give distinct workload content hashes.
func Workload(k int) []core.Sample {
	samples := make([]core.Sample, 0, 400)
	for i := 0; i < 400; i++ {
		metric := "m1"
		if i%2 == 1 {
			metric = "m2"
		}
		samples = append(samples, core.Sample{
			Metric: metric,
			T:      1,
			W:      float64(1+i%16) + float64(k)/64,
			M:      float64(1 + (i*7)%16),
			Window: i,
		})
	}
	return samples
}

// StartHTTP serves h on an ephemeral loopback port and tears it down
// with the test.
func StartHTTP(t testing.TB, h http.Handler) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// PostJSON marshals body and POSTs it as application/json.
func PostJSON(t testing.TB, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// ReadBody drains and closes a response body.
func ReadBody(t testing.TB, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// HTTPGet fetches url and returns status and body.
func HTTPGet(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, ReadBody(t, resp)
}

// HTTPPost posts body and returns status, headers and response body.
func HTTPPost(t testing.TB, url, contentType string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header, ReadBody(t, resp)
}

// ScrapeMetrics fetches base's /metrics exposition over a clean
// connection.
func ScrapeMetrics(t testing.TB, base string) string {
	t.Helper()
	code, raw := HTTPGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics status %d: %s", code, raw)
	}
	return string(raw)
}

// MetricValue returns the value of the exposition sample line that
// starts with series (exact series name, labels included), or 0 when
// absent.
func MetricValue(t testing.TB, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("unparsable sample %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// MustMetric is MetricValue that fails the test when the series is
// absent from the exposition.
func MustMetric(t testing.TB, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("unparsable sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition:\n%s", series, exposition)
	return 0
}

// SumMetric sums every sample of a metric family whose label set
// matches all given `k="v"` fragments (label order independent).
func SumMetric(t testing.TB, exposition, family string, labels ...string) float64 {
	t.Helper()
	re := regexp.MustCompile(`^` + regexp.QuoteMeta(family) + `\{([^}]*)\} ([0-9eE.+-]+)$`)
	var sum float64
	for _, line := range strings.Split(exposition, "\n") {
		m := re.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(m[1], l) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// AssertServeBooksBalance asserts the serving tier's exact
// admission-accounting identity on the estimate route: requests ==
// admitted + Σ rejected{reason} + degraded-served, with the queue and
// inflight gauges back at zero.
func AssertServeBooksBalance(t testing.TB, exposition string) {
	t.Helper()
	requests := SumMetric(t, exposition, "spire_http_requests_total", `route="/v1/estimate"`)
	admitted := MetricValue(t, exposition, "spire_admission_admitted_total")
	degraded := MetricValue(t, exposition, "spire_estimates_degraded_total")
	var rejected float64
	for _, reason := range []string{"quota", "queue_full", "deadline"} {
		rejected += MetricValue(t, exposition, fmt.Sprintf(`spire_admission_rejected_total{reason=%q}`, reason))
	}
	if requests != admitted+rejected+degraded {
		t.Errorf("books don't balance: requests %v != admitted %v + rejected %v + degraded %v",
			requests, admitted, rejected, degraded)
	}
	if depth := MetricValue(t, exposition, "spire_admission_queue_depth"); depth != 0 {
		t.Errorf("queue depth %v after soak, want 0", depth)
	}
	if inflight := MetricValue(t, exposition, "spire_admission_inflight"); inflight != 0 {
		t.Errorf("admission inflight %v after soak, want 0", inflight)
	}
}

// AssertRouteBooksBalance asserts the routing tier's accounting
// identity for one route: every accepted request resolved to exactly
// one outcome — relayed from the home shard, relayed after failover, or
// rejected by the router itself — and the router's inflight gauge is
// back at zero.
func AssertRouteBooksBalance(t testing.TB, exposition, route string) {
	t.Helper()
	label := fmt.Sprintf("route=%q", route)
	requests := SumMetric(t, exposition, "spire_route_requests_total", label)
	relayed := SumMetric(t, exposition, "spire_route_relayed_total", label)
	rejected := SumMetric(t, exposition, "spire_route_rejected_total", label)
	if requests != relayed+rejected {
		t.Errorf("route books don't balance for %s: requests %v != relayed %v + rejected %v",
			route, requests, relayed, rejected)
	}
	if inflight := MetricValue(t, exposition, "spire_route_inflight_requests"); inflight != 0 {
		t.Errorf("router inflight %v after soak, want 0", inflight)
	}
}

// Golden compares got against the golden file at path, or rewrites the
// file when update is true (the suite's -update flag).
func Golden(t testing.TB, path string, got []byte, update bool) {
	t.Helper()
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden %s (re-run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverges from golden %s\ngot:  %s\nwant: %s", path, got, want)
	}
}
