package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spire/internal/core"
	"spire/internal/testutil"
)

// Model training, canned workloads and the HTTP helpers live in
// internal/testutil, shared with the client, cluster and e2e suites.

// newTestServer builds a server plus its httptest frontend.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := testutil.StartHTTP(t, s.Handler())
	t.Cleanup(s.Close) // detach SSE clients before the listener closes
	return s, ts
}

func TestHealthzReadiness(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.Unmarshal(testutil.ReadBody(t, resp), &h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || h.Status != "ok" || h.Ready {
		t.Errorf("empty server healthz = %d %+v, want 200 ok not-ready", resp.StatusCode, h)
	}

	_, model := testutil.TrainModel(t, 1)
	if _, err := s.Models().Load(bytes.NewReader(model), "test"); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(testutil.ReadBody(t, resp), &h); err != nil {
		t.Fatal(err)
	}
	if !h.Ready || h.Model == "" {
		t.Errorf("healthz after model load = %+v, want ready with model ID", h)
	}
}

func TestEstimateNoModel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := testutil.PostJSON(t, ts.URL+"/v1/estimate", EstimateRequest{Samples: testutil.Samples()})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
	var e errorBody
	if err := json.Unmarshal(testutil.ReadBody(t, resp), &e); err != nil || e.Error == "" {
		t.Errorf("503 body must be a JSON error, got err=%v body=%+v", err, e)
	}
}

// TestEstimateParityAndCache: the endpoint must agree exactly with a
// direct BatchEstimate, repeated identical requests must be byte-stable
// and served from the index cache.
func TestEstimateParityAndCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ens, model := testutil.TrainModel(t, 1)
	if _, err := s.Models().Load(bytes.NewReader(model), "test"); err != nil {
		t.Fatal(err)
	}

	samples := testutil.Samples()
	want, err := ens.BatchEstimate(context.Background(),
		core.IndexWorkload(core.Dataset{Samples: samples}), core.EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}

	resp := testutil.PostJSON(t, ts.URL+"/v1/estimate", EstimateRequest{Samples: samples})
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, testutil.ReadBody(t, resp))
	}
	if got := resp.Header.Get("X-Spire-Cache"); got != "miss" {
		t.Errorf("first request cache header = %q, want miss", got)
	}
	first := testutil.ReadBody(t, resp)
	var er EstimateResponse
	if err := json.Unmarshal(first, &er); err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(er.Estimation)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("served estimation differs from direct BatchEstimate:\n%s\nvs\n%s", gotJSON, wantJSON)
	}
	if er.Model == "" {
		t.Error("response missing model ID")
	}

	// Identical request: byte-identical response, cache hit.
	resp = testutil.PostJSON(t, ts.URL+"/v1/estimate", EstimateRequest{Samples: samples})
	if got := resp.Header.Get("X-Spire-Cache"); got != "hit" {
		t.Errorf("second request cache header = %q, want hit", got)
	}
	second := testutil.ReadBody(t, resp)
	if !bytes.Equal(first, second) {
		t.Error("identical requests produced different bodies")
	}
	hits := s.metrics.Counter("spire_estimate_cache_hits_total", "").Value()
	misses := s.metrics.Counter("spire_estimate_cache_misses_total", "").Value()
	if hits != 1 || misses != 1 {
		t.Errorf("cache counters hits=%g misses=%g, want 1/1", hits, misses)
	}
	if s.mEstimates.Value() != 2 {
		t.Errorf("estimates served = %g, want 2", s.mEstimates.Value())
	}
	// The invalid + unmatched samples were counted as quarantined once
	// (indexing drops only the invalid one on each request; the counter
	// increments per request that dropped).
	if s.mQuarantined.Value() == 0 {
		t.Error("dropped invalid sample not reflected in quarantine counter")
	}
}

func TestEstimateRequestErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBodyBytes: 2048})
	_, model := testutil.TrainModel(t, 1)
	if _, err := s.Models().Load(bytes.NewReader(model), "test"); err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/estimate"

	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed", `{"samples": [`, 400},
		{"trailing", `{"samples":[{"metric":"m1","t":1,"w":1,"m":1}]} garbage`, 400},
		{"empty", `{}`, 422},
		{"no samples", `{"samples":[]}`, 422},
		{"no overlap", `{"samples":[{"metric":"nope","t":1,"w":1,"m":1}]}`, 422},
		{"wrong types", `{"samples":"hello"}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(url, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body := testutil.ReadBody(t, resp)
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d (%s)", resp.StatusCode, tc.want, body)
			}
			var e errorBody
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Errorf("error body is not JSON: %s", body)
			}
		})
	}

	// Oversized body -> 413.
	huge := `{"samples":[` + strings.Repeat(`{"metric":"m1","t":1,"w":1,"m":1},`, 100)
	huge += `{"metric":"m1","t":1,"w":1,"m":1}]}`
	resp, err := http.Post(url, "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", resp.StatusCode)
	}
	testutil.ReadBody(t, resp)

	// GET on a POST route is a 405 from the mux.
	getResp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/estimate = %d, want 405", getResp.StatusCode)
	}
	testutil.ReadBody(t, getResp)
}

// TestEstimateTopAndWorkers: top truncates the ranking, and the legacy
// "workers" field older clients send is accepted and has no effect.
func TestEstimateTopAndWorkers(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	_, model := testutil.TrainModel(t, 1)
	if _, err := s.Models().Load(bytes.NewReader(model), "test"); err != nil {
		t.Fatal(err)
	}
	post := func(body any) []byte {
		t.Helper()
		resp := testutil.PostJSON(t, ts.URL+"/v1/estimate", body)
		raw := testutil.ReadBody(t, resp)
		if resp.StatusCode != 200 {
			t.Fatalf("status = %d: %s", resp.StatusCode, raw)
		}
		return raw
	}
	raw := post(map[string]any{"samples": testutil.Samples(), "top": 1, "workers": 1 << 20})
	var er EstimateResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Estimation.PerMetric) != 1 {
		t.Errorf("top=1 returned %d metrics", len(er.Estimation.PerMetric))
	}
	if plain := post(EstimateRequest{Samples: testutil.Samples(), Top: 1}); !bytes.Equal(raw, plain) {
		t.Errorf("workers field changed the response:\nwith:    %s\nwithout: %s", raw, plain)
	}
}

const ingestCSV = `# started on Wed Aug  5 14:02:11 2026
1.000611541,3108802065,,cycles,1000000000,100.00,,
1.000611541,3661935590,,instructions,1000000000,100.00,,
1.000611541,12807099,,longest_lat_cache.miss,241738776,24.84,,
2.000535953,3146324599,,cycles,1000000000,100.00,,
2.000535953,4511569024,,instructions,1000000000,100.00,,
2.000535953,<not counted>,,longest_lat_cache.miss,0,0.00,,
garbled line that cannot parse
`

func TestIngestEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	url := ts.URL + "/v1/ingest"

	resp, err := http.Post(url, "text/csv", strings.NewReader(ingestCSV))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("lenient ingest status = %d: %s", resp.StatusCode, testutil.ReadBody(t, resp))
	}
	var ir IngestResponse
	if err := json.Unmarshal(testutil.ReadBody(t, resp), &ir); err != nil {
		t.Fatal(err)
	}
	if len(ir.Samples) != 1 {
		t.Errorf("ingested %d samples, want 1 (one metric row with both fixed counters)", len(ir.Samples))
	}
	if ir.Stats.Intervals != 2 {
		t.Errorf("intervals = %d, want 2", ir.Stats.Intervals)
	}
	if len(ir.Diags) == 0 {
		t.Error("garbled + not-counted rows should produce diagnostics")
	}
	if s.mIngested.Value() != 1 {
		t.Errorf("ingested counter = %g, want 1", s.mIngested.Value())
	}

	// Strict mode aborts on the garbled line.
	resp, err = http.Post(url+"?mode=strict", "text/csv", strings.NewReader(ingestCSV))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("strict ingest status = %d, want 422", resp.StatusCode)
	}
	testutil.ReadBody(t, resp)

	// Parameter validation.
	for _, bad := range []string{"?mode=wild", "?min_run_pct=oops", "?min_run_pct=123"} {
		resp, err := http.Post(url+bad, "text/csv", strings.NewReader(ingestCSV))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", bad, resp.StatusCode)
		}
		testutil.ReadBody(t, resp)
	}

	// The ingest response samples feed straight into /v1/estimate once a
	// covering model is loaded.
	var d core.Dataset
	for w := 1; w <= 8; w++ {
		d.Add(core.Sample{Metric: "longest_lat_cache.miss", T: 1e9, W: float64(w) * 1e9, M: 2e7, Window: w})
	}
	ens, err := core.Train(d, core.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ens.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Models().Load(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	resp = testutil.PostJSON(t, ts.URL+"/v1/estimate", EstimateRequest{Samples: ir.Samples})
	if resp.StatusCode != 200 {
		t.Errorf("estimate over ingested samples = %d: %s", resp.StatusCode, testutil.ReadBody(t, resp))
	} else {
		testutil.ReadBody(t, resp)
	}
}

func TestModelRegistryUploadSwapPersist(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{ModelDir: dir})
	url := ts.URL + "/v1/models"

	// No model yet.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	var mr ModelsResponse
	if err := json.Unmarshal(testutil.ReadBody(t, resp), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Current != nil || len(mr.History) != 0 {
		t.Errorf("fresh registry = %+v, want empty", mr)
	}

	_, modelA := testutil.TrainModel(t, 1)
	_, modelB := testutil.TrainModel(t, 3)

	// Upload A.
	resp, err = http.Post(url, "application/json", bytes.NewReader(modelA))
	if err != nil {
		t.Fatal(err)
	}
	var infoA ModelInfo
	if err := json.Unmarshal(testutil.ReadBody(t, resp), &infoA); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || infoA.Sequence != 1 || infoA.Metrics != 2 {
		t.Fatalf("upload A = %d %+v", resp.StatusCode, infoA)
	}
	// Persisted content-addressed.
	if _, err := os.Stat(filepath.Join(dir, infoA.ID+".json")); err != nil {
		t.Errorf("model A not persisted: %v", err)
	}

	// Upload B: hot-swap.
	resp, err = http.Post(url, "application/json", bytes.NewReader(modelB))
	if err != nil {
		t.Fatal(err)
	}
	var infoB ModelInfo
	if err := json.Unmarshal(testutil.ReadBody(t, resp), &infoB); err != nil {
		t.Fatal(err)
	}
	if infoB.Sequence != 2 || infoB.ID == infoA.ID {
		t.Fatalf("upload B = %+v (A was %+v)", infoB, infoA)
	}
	resp, err = http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(testutil.ReadBody(t, resp), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Current == nil || mr.Current.ID != infoB.ID || len(mr.History) != 2 {
		t.Errorf("after swap: %+v", mr)
	}
	if s.mSwaps.Value() != 2 {
		t.Errorf("swap counter = %g, want 2", s.mSwaps.Value())
	}

	// Rejections: garbage, wrong envelope, structurally bad model.
	for name, payload := range map[string]string{
		"garbage":  "not json at all",
		"envelope": `{"format":"other","version":1,"model":{}}`,
		"invalid":  `{"format":"spire-ensemble","version":1,"model":{"rooflines":{"m":{"metric":"m","left":[{"X":2,"Y":5},{"X":1,"Y":9}],"tailY":1}}}}`,
	} {
		resp, err := http.Post(url, "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s upload status = %d, want 422", name, resp.StatusCode)
		}
		testutil.ReadBody(t, resp)
	}
	// Served model untouched by the rejected uploads.
	if _, info := s.Models().Current(); info.ID != infoB.ID {
		t.Error("rejected upload displaced the served model")
	}

	// A fresh registry resumes the newest persisted model.
	r2 := NewRegistry(dir)
	resumed, err := r2.LoadLatestFromDir()
	if err != nil {
		t.Fatal(err)
	}
	if resumed == nil {
		t.Fatal("LoadLatestFromDir found nothing")
	}
	if resumed.ID != infoA.ID && resumed.ID != infoB.ID {
		t.Errorf("resumed unknown model %s", resumed.ID)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	_, model := testutil.TrainModel(t, 1)
	if _, err := s.Models().Load(bytes.NewReader(model), "test"); err != nil {
		t.Fatal(err)
	}
	testutil.ReadBody(t, testutil.PostJSON(t, ts.URL+"/v1/estimate", EstimateRequest{Samples: testutil.Samples()}))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type = %q", ct)
	}
	body := string(testutil.ReadBody(t, resp))
	for _, want := range []string{
		"spire_estimates_served_total 1",
		"spire_model_swaps_total 1",
		"spire_model_metrics 2",
		`spire_http_requests_total{code="200",route="/v1/estimate"} 1`,
		`spire_http_request_seconds_count{route="/v1/estimate"} 1`,
		"spire_estimate_cache_misses_total 1",
		// The admission instruments render from the first scrape — all
		// three rejection reasons, the queue-depth gauge, and the
		// degraded-serve counter — in the exact exposition shape the
		// dashboards key on.
		"# TYPE spire_admission_rejected_total counter",
		`spire_admission_rejected_total{reason="deadline"} 0`,
		`spire_admission_rejected_total{reason="queue_full"} 0`,
		`spire_admission_rejected_total{reason="quota"} 0`,
		"# TYPE spire_admission_queue_depth gauge",
		"spire_admission_queue_depth 0",
		"spire_admission_admitted_total 1",
		"spire_admission_inflight 0",
		"spire_estimates_degraded_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestServeGracefulDrain(t *testing.T) {
	s := New(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln, 5*time.Second) }()

	url := fmt.Sprintf("http://%s/healthz", ln.Addr())
	var resp *http.Response
	for i := 0; i < 100; i++ {
		resp, err = http.Get(url)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	testutil.ReadBody(t, resp)

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("drain returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
}

func TestPprofGate(t *testing.T) {
	_, tsOff := newTestServer(t, Config{})
	resp, err := http.Get(tsOff.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == 200 {
		t.Error("pprof must be off by default")
	}
	testutil.ReadBody(t, resp)

	_, tsOn := newTestServer(t, Config{EnablePprof: true})
	resp, err = http.Get(tsOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Errorf("pprof index = %d, want 200", resp.StatusCode)
	}
	testutil.ReadBody(t, resp)
}
