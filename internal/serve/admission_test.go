package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"spire/internal/core"
	"spire/internal/lru"
	"spire/internal/testutil"
)

// bigWorkload builds a unique (cache-busting) workload of n samples over
// the trainModel metrics, salted by id.
func bigWorkload(n, id int) []core.Sample {
	samples := make([]core.Sample, 0, n)
	for i := 0; i < n; i++ {
		metric := "m1"
		if i%2 == 1 {
			metric = "m2"
		}
		samples = append(samples, core.Sample{
			Metric: metric,
			T:      1,
			W:      float64(1+i%16) + float64(id)/1024,
			M:      float64(1 + (i*7)%16),
			Window: i,
		})
	}
	return samples
}

// estimateStatus posts one estimate request and returns the status code
// and response.
func estimateStatus(t *testing.T, url string, samples []core.Sample, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(EstimateRequest{Samples: samples})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url+"/v1/estimate", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, testutil.ReadBody(t, resp)
}

// loadTestModel installs the standard test model and returns its ID.
func loadTestModel(t *testing.T, s *Server) string {
	t.Helper()
	_, model := testutil.TrainModel(t, 1)
	info, err := s.Models().Load(bytes.NewReader(model), "test")
	if err != nil {
		t.Fatal(err)
	}
	return info.ID
}

// TestOverloadShedsWith429 is the overload contract: when offered load
// exceeds the concurrency gate, excess requests get 429 + Retry-After —
// never a 5xx, never unbounded queueing — while at least one request is
// actually served.
func TestOverloadShedsWith429(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxConcurrent:  1,
		AdmissionQueue: 1,
		QueueWait:      5 * time.Millisecond,
		DegradedCache:  -1,
	})
	loadTestModel(t, s)

	const offered = 24
	type result struct {
		status     int
		retryAfter string
		body       string
	}
	// Marshal every body up front so the goroutines race on the wire,
	// not on encoding.
	bodies := make([][]byte, offered)
	for i := range bodies {
		raw, err := json.Marshal(EstimateRequest{Samples: bigWorkload(20000, i)})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = raw
	}
	results := make([]result, offered)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < offered; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(bodies[i]))
			if err != nil {
				t.Error(err)
				return
			}
			body := testutil.ReadBody(t, resp)
			results[i] = result{resp.StatusCode, resp.Header.Get("Retry-After"), string(body)}
		}(i)
	}
	close(start)
	wg.Wait()

	served, shed := 0, 0
	for i, r := range results {
		switch r.status {
		case http.StatusOK:
			served++
		case http.StatusTooManyRequests:
			shed++
			ra, err := strconv.Atoi(r.retryAfter)
			if err != nil || ra < 1 {
				t.Errorf("request %d: 429 with Retry-After %q, want integer >= 1", i, r.retryAfter)
			}
		default:
			t.Errorf("request %d: status %d (%s), want 200 or 429", i, r.status, r.body)
		}
	}
	if served == 0 {
		t.Error("overload run served nothing; the gate should still admit up to capacity")
	}
	if shed == 0 {
		t.Errorf("offered %d against gate 1+queue 1 shed nothing", offered)
	}

	// The books must balance: every request on the route was admitted
	// or rejected with exactly one reason, and the queue is empty.
	metrics := scrapeMetrics(t, ts.URL)
	admitted := metricValue(t, metrics, `spire_admission_admitted_total`)
	rejected := sumMetric(t, metrics, `spire_admission_rejected_total\{reason="[a-z_]+"\}`)
	if int(admitted+rejected) != offered {
		t.Errorf("admitted %g + rejected %g != offered %d\n%s", admitted, rejected, offered, metrics)
	}
	if int(admitted) != served {
		t.Errorf("admitted_total = %g, clients saw %d successes", admitted, served)
	}
	if depth := metricValue(t, metrics, `spire_admission_queue_depth`); depth != 0 {
		t.Errorf("queue_depth = %g at rest, want 0", depth)
	}
}

// scrapeMetrics fetches the full /metrics exposition.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	return string(testutil.ReadBody(t, resp))
}

// metricValue extracts one sample whose name (regex) matches exactly.
func metricValue(t *testing.T, exposition, nameRe string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + nameRe + ` ([0-9.e+-]+)$`)
	m := re.FindStringSubmatch(exposition)
	if m == nil {
		t.Fatalf("no sample matches %q in:\n%s", nameRe, exposition)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// sumMetric sums every sample whose name (regex) matches.
func sumMetric(t *testing.T, exposition, nameRe string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + nameRe + ` ([0-9.e+-]+)$`)
	sum := 0.0
	for _, m := range re.FindAllStringSubmatch(exposition, -1) {
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	return sum
}

// TestDegradedCacheFastPath pins the saturated fast path: with the gate
// fully held, a workload whose exact response is cached is still served
// — byte-identical, marked degraded — while an uncached workload is
// shed.
func TestDegradedCacheFastPath(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxConcurrent:  1,
		AdmissionQueue: -1, // no waiting room: saturation rejects instantly
	})
	loadTestModel(t, s)
	samples := testutil.Samples()

	// Warm: one normal estimate populates the response cache.
	resp, fresh := estimateStatus(t, ts.URL, samples, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("warm estimate: status %d (%s)", resp.StatusCode, fresh)
	}
	if resp.Header.Get("X-Spire-Degraded") != "" {
		t.Fatal("unsaturated estimate must not be marked degraded")
	}

	// Saturate the gate deterministically by holding its only slot.
	release, err := s.adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	resp, degraded := estimateStatus(t, ts.URL, samples, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("degraded estimate: status %d (%s)", resp.StatusCode, degraded)
	}
	if got := resp.Header.Get("X-Spire-Degraded"); got != "cache" {
		t.Errorf("X-Spire-Degraded = %q, want \"cache\"", got)
	}
	if !bytes.Equal(fresh, degraded) {
		t.Errorf("degraded response differs from fresh:\n%s\nvs\n%s", degraded, fresh)
	}

	// An uncached workload cannot be degraded-served: shed with 429.
	resp, body := estimateStatus(t, ts.URL, bigWorkload(64, 1), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("uncached workload under saturation: status %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}

	release()
	resp, _ = estimateStatus(t, ts.URL, samples, nil)
	if resp.StatusCode != 200 || resp.Header.Get("X-Spire-Degraded") != "" {
		t.Errorf("post-release estimate: status %d degraded %q, want plain 200",
			resp.StatusCode, resp.Header.Get("X-Spire-Degraded"))
	}

	m := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, m, `spire_estimates_degraded_total`); got != 1 {
		t.Errorf("degraded_total = %g, want 1", got)
	}
}

// TestTenantQuota pins per-tenant isolation and the Retry-After
// contract, across /v1/estimate and the stream routes.
func TestTenantQuota(t *testing.T) {
	s, ts := newTestServer(t, Config{
		TenantRate:  0.001, // effectively no refill within the test
		TenantBurst: 2,
	})
	loadTestModel(t, s)
	samples := testutil.Samples()
	alice := map[string]string{"X-Spire-Tenant": "alice"}

	for i := 0; i < 2; i++ {
		resp, body := estimateStatus(t, ts.URL, samples, alice)
		if resp.StatusCode != 200 {
			t.Fatalf("alice request %d inside burst: status %d (%s)", i, resp.StatusCode, body)
		}
	}
	resp, _ := estimateStatus(t, ts.URL, samples, alice)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice request over burst: status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("quota 429 Retry-After = %q, want integer >= 1 (time to next token)", resp.Header.Get("Retry-After"))
	}

	// Unrelated tenants (including the default bucket) are unaffected.
	resp, _ = estimateStatus(t, ts.URL, samples, map[string]string{"X-Spire-Tenant": "bob"})
	if resp.StatusCode != 200 {
		t.Errorf("bob: status %d, want 200", resp.StatusCode)
	}
	resp, _ = estimateStatus(t, ts.URL, samples, nil)
	if resp.StatusCode != 200 {
		t.Errorf("default tenant: status %d, want 200", resp.StatusCode)
	}

	// The drained tenant is rejected on the stream routes too.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/stream", nil)
	req.Header.Set("X-Spire-Tenant", "alice")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	testutil.ReadBody(t, sresp)
	if sresp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("alice stream subscribe: status %d, want 429", sresp.StatusCode)
	}
	freq, _ := http.NewRequest("POST", ts.URL+"/v1/stream", bytes.NewReader(nil))
	freq.Header.Set("X-Spire-Tenant", "alice")
	fresp, err := http.DefaultClient.Do(freq)
	if err != nil {
		t.Fatal(err)
	}
	testutil.ReadBody(t, fresp)
	if fresp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("alice stream feed: status %d, want 429", fresp.StatusCode)
	}

	m := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, m, `spire_admission_rejected_total\{reason="quota"\}`); got != 3 {
		t.Errorf(`rejected{quota} = %g, want 3`, got)
	}
}

// TestReadyz pins the /readyz contract: 503 with no model, 200 with one,
// and (exercised in the e2e drain test) 503 once draining.
func TestReadyz(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready ReadyResponse
	if err := json.Unmarshal(testutil.ReadBody(t, resp), &ready); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || ready.Ready || ready.Reason != "no model" {
		t.Errorf("empty readyz = %d %+v, want 503 no model", resp.StatusCode, ready)
	}

	id := loadTestModel(t, s)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(testutil.ReadBody(t, resp), &ready); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !ready.Ready || ready.Model != id {
		t.Errorf("readyz with model = %d %+v, want 200 ready model %s", resp.StatusCode, ready, id)
	}

	// Draining flips readiness while healthz stays alive.
	s.draining.Store(true)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(testutil.ReadBody(t, resp), &ready); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || ready.Reason != "draining" {
		t.Errorf("draining readyz = %d %+v, want 503 draining", resp.StatusCode, ready)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	testutil.ReadBody(t, hresp)
	if hresp.StatusCode != 200 {
		t.Errorf("healthz while draining = %d, want 200 (alive)", hresp.StatusCode)
	}
}

// TestRespCacheLRU pins the degraded-cache bounds and eviction order.
func TestRespCacheLRU(t *testing.T) {
	c := lru.New[string, []byte](2)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // refresh a: b is now LRU
		t.Fatal("a missing")
	}
	c.Put("c", []byte("C"))
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "A" {
		t.Error("a lost")
	}
	if v, ok := c.Get("c"); !ok || string(v) != "C" {
		t.Error("c lost")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}

	off := lru.New[string, []byte](-1)
	off.Put("x", []byte("X"))
	if _, ok := off.Get("x"); ok {
		t.Error("disabled cache must not store")
	}
}

// TestEstimateMalformedUnderSaturation: a shed request with a garbage
// body is still answered 429 (the retryable contract), not 400.
func TestEstimateMalformedUnderSaturation(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, AdmissionQueue: -1})
	loadTestModel(t, s)
	release, err := s.adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json",
		bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	body := testutil.ReadBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("garbage body under saturation: status %d (%s), want 429", resp.StatusCode, body)
	}
}
