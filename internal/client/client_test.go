package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spire/internal/core"
	"spire/internal/wire"
)

func testSamples() []core.Sample {
	return []core.Sample{
		{Metric: "l2_misses", T: 1000, W: 500, M: 120},
		{Metric: "l2_misses", T: 2000, W: 900, M: 260},
		{Metric: "dram_bw", T: 1000, W: 500, M: 80},
	}
}

// fastClient builds a client with near-zero backoff so retry tests run
// in milliseconds.
func fastClient(t *testing.T, url string, mut func(*Config)) *Client {
	t.Helper()
	cfg := Config{
		BaseURL:   url,
		Seed:      1,
		BaseDelay: 100 * time.Microsecond,
		MaxDelay:  time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidatesBaseURL(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty BaseURL should fail")
	}
	if _, err := New(Config{BaseURL: "ftp://x"}); err == nil {
		t.Fatal("non-http BaseURL should fail")
	}
	c, err := New(Config{BaseURL: "http://x/"})
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.BaseURL != "http://x" {
		t.Fatalf("trailing slash not trimmed: %q", c.cfg.BaseURL)
	}
}

// TestEstimateRetriesOverload: 429s with Retry-After are retried until
// the server relents, and the chosen delays honor the server's floor.
func TestEstimateRetriesOverload(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
			return
		}
		io.WriteString(w, `{"model":"m1","estimation":null}`+"\n")
	}))
	defer ts.Close()

	var retries []RetryInfo
	c := fastClient(t, ts.URL, func(cfg *Config) {
		cfg.Tenant = "alice"
		cfg.OnRetry = func(ri RetryInfo) { retries = append(retries, ri) }
		// Keep the test quick despite the 1s Retry-After contract: shrink
		// what "honor" costs while still asserting the floor relation.
		cfg.BaseDelay = 50 * time.Microsecond
	})
	// Patch the server's declared wait down by intercepting via OnRetry
	// assertions only; actually sleeping 2x1s would slow the suite, so
	// run the call in a goroutine with a generous timeout.
	done := make(chan error, 1)
	go func() {
		_, err := c.Estimate(context.Background(), testSamples(), EstimateOptions{})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Estimate: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Estimate hung")
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server hits = %d, want 3", got)
	}
	if len(retries) != 2 {
		t.Fatalf("OnRetry calls = %d, want 2", len(retries))
	}
	for i, ri := range retries {
		if ri.Status != http.StatusTooManyRequests {
			t.Fatalf("retry %d status = %d, want 429", i, ri.Status)
		}
		if ri.RetryAfter != time.Second {
			t.Fatalf("retry %d RetryAfter = %v, want 1s", i, ri.RetryAfter)
		}
		if ri.Delay < ri.RetryAfter {
			t.Fatalf("retry %d delay %v below the server's Retry-After floor %v", i, ri.Delay, ri.RetryAfter)
		}
	}
}

// TestEstimateRetriesTransportError: connection failures on the
// idempotent estimate path are retried.
func TestEstimateRetriesTransportError(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			// Kill the connection mid-response.
			hj, _ := w.(http.Hijacker)
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		io.WriteString(w, `{"model":"m1","estimation":null}`+"\n")
	}))
	defer ts.Close()

	c := fastClient(t, ts.URL, nil)
	res, err := c.Estimate(context.Background(), testSamples(), EstimateOptions{})
	if err != nil {
		t.Fatalf("Estimate after transport fault: %v", err)
	}
	if res.Model != "m1" {
		t.Fatalf("model = %q, want m1", res.Model)
	}
	if hits.Load() != 2 {
		t.Fatalf("hits = %d, want 2", hits.Load())
	}
}

// TestEstimateDoesNotRetryBadRequest: a definitive 4xx is returned
// immediately as *APIError, never retried.
func TestEstimateDoesNotRetryBadRequest(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"no samples"}`, http.StatusBadRequest)
	}))
	defer ts.Close()

	c := fastClient(t, ts.URL, nil)
	_, err := c.Estimate(context.Background(), testSamples(), EstimateOptions{})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want *APIError 400", err)
	}
	if ae.Message != "no samples" {
		t.Fatalf("message = %q, want server's error field", ae.Message)
	}
	if hits.Load() != 1 {
		t.Fatalf("hits = %d, want 1 (400 must not be retried)", hits.Load())
	}
}

// TestEstimateStringLimitBothWires: a metric name longer than SPB1 can
// carry fails the same way over JSON and SPB1, before anything is sent,
// and one at the limit reaches the server intact over SPB1.
func TestEstimateStringLimitBothWires(t *testing.T) {
	var (
		hits   atomic.Int32
		gotLen atomic.Int64
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		req, err := wire.ReadEstimateRequest(r.Body, r.Header.Get("Content-Type"))
		if err == nil && len(req.Samples) > 0 {
			gotLen.Store(int64(len(req.Samples[0].Metric)))
		}
		http.Error(w, `{"error":"recorded"}`, http.StatusBadRequest)
	}))
	defer ts.Close()
	c := fastClient(t, ts.URL, nil)
	withMetric := func(name string) []core.Sample {
		s := testSamples()
		s[0].Metric = name
		return s
	}

	over := withMetric(strings.Repeat("m", math.MaxUint16+1))
	var errs []string
	for _, format := range []string{WireJSON, WireBin} {
		_, err := c.Estimate(context.Background(), over, EstimateOptions{Wire: format})
		if err == nil || !strings.Contains(err.Error(), "SPB1 string limit") {
			t.Fatalf("%s: err = %v, want the SPB1 string limit", format, err)
		}
		errs = append(errs, err.Error())
	}
	if errs[0] != errs[1] {
		t.Fatalf("JSON and SPB1 fail differently:\n%s\n%s", errs[0], errs[1])
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("%d over-limit requests reached the server", n)
	}

	_, err := c.Estimate(context.Background(), withMetric(strings.Repeat("m", math.MaxUint16)), EstimateOptions{Wire: WireBin})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Message != "recorded" {
		t.Fatalf("err = %v, want the test server's 400", err)
	}
	if n := gotLen.Load(); n != math.MaxUint16 {
		t.Fatalf("server decoded a %d-byte metric, want %d", n, math.MaxUint16)
	}
}

// TestEstimateGivesUpAfterMaxAttempts bounds the retry loop.
func TestEstimateGivesUpAfterMaxAttempts(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := fastClient(t, ts.URL, func(cfg *Config) { cfg.MaxAttempts = 3 })
	_, err := c.Estimate(context.Background(), testSamples(), EstimateOptions{})
	if err == nil || !strings.Contains(err.Error(), "gave up after 3 attempts") {
		t.Fatalf("err = %v, want give-up after 3", err)
	}
	if hits.Load() != 3 {
		t.Fatalf("hits = %d, want exactly MaxAttempts", hits.Load())
	}
}

// TestFeedStreamNeverRetries: the non-idempotent feed path is
// single-shot — a retryable-looking failure is surfaced, not replayed.
func TestFeedStreamNeverRetries(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.ReadAll(r.Body) // the server may well have consumed the feed
		http.Error(w, "shed", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := fastClient(t, ts.URL, nil)
	_, err := c.FeedStream(context.Background(), strings.NewReader("interval data\n"))
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "not retried: non-idempotent") {
		t.Fatalf("err = %v, want non-idempotent classification", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("hits = %d; a stream feed must never be blindly retried", hits.Load())
	}
}

// TestIngestRetriesWithReplayableBody: ingest retries because BytesBody
// rebuilds the payload per attempt — each attempt must see the full body.
func TestIngestRetriesWithReplayableBody(t *testing.T) {
	payload := "ts,metric,t,w,m\n"
	var bodies []string
	var mu sync.Mutex
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, string(raw))
		mu.Unlock()
		if hits.Add(1) == 1 {
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, `{"samples":[],"quarantined":0}`)
	}))
	defer ts.Close()

	c := fastClient(t, ts.URL, nil)
	if _, err := c.Ingest(context.Background(), BytesBody([]byte(payload)), IngestOptions{}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 2 {
		t.Fatalf("attempts = %d, want 2", len(bodies))
	}
	for i, b := range bodies {
		if b != payload {
			t.Fatalf("attempt %d body = %q, want full payload (replayed from scratch)", i, b)
		}
	}
}

func TestIngestRequiresBodyFactory(t *testing.T) {
	c := fastClient(t, "http://127.0.0.1:1", nil)
	if _, err := c.Ingest(context.Background(), nil, IngestOptions{}); err == nil {
		t.Fatal("nil body factory should be rejected client-side")
	}
}

// TestContextCancelsBackoff: cancellation mid-backoff unblocks
// immediately with ctx.Err, not after the scheduled delay.
func TestContextCancelsBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		http.Error(w, "shed", http.StatusTooManyRequests)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	c := fastClient(t, ts.URL, func(cfg *Config) {
		cfg.OnRetry = func(RetryInfo) { cancel() } // cancel once the 30s backoff is scheduled
	})
	start := time.Now()
	_, err := c.Estimate(ctx, testSamples(), EstimateOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the 30s Retry-After backoff was not interrupted", elapsed)
	}
}

// TestBackoffJitterStatistics is the thundering-herd assertion: over a
// seeded run the chosen delays are spread across [0, ceil), not bunched
// at any fixed point, and the draw is reproducible by seed.
func TestBackoffJitterStatistics(t *testing.T) {
	const n = 400
	draw := func(seed int64) []time.Duration {
		c, err := New(Config{BaseURL: "http://x", Seed: seed, BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = c.backoff(1, 0) // attempt 1 → uniform over [0, 100ms)
		}
		return out
	}

	a := draw(42)

	// 1. Bounds: full jitter stays inside [0, ceil).
	ceil := 100 * time.Millisecond
	for i, d := range a {
		if d < 0 || d >= ceil {
			t.Fatalf("draw %d = %v outside [0, %v)", i, d, ceil)
		}
	}

	// 2. Dispersion: the mean of U[0,ceil) is ceil/2; a herd of clients
	// all backing off the same fixed amount would fail this band.
	var sum time.Duration
	distinct := make(map[time.Duration]struct{}, n)
	for _, d := range a {
		sum += d
		distinct[d] = struct{}{}
	}
	mean := sum / n
	if mean < ceil*35/100 || mean > ceil*65/100 {
		t.Fatalf("mean jitter %v outside [35%%, 65%%] of %v — distribution is not uniform-ish", mean, ceil)
	}
	if len(distinct) < n*9/10 {
		t.Fatalf("only %d/%d distinct delays — jitter is collapsing onto fixed points", len(distinct), n)
	}

	// 3. Quartile occupancy: every quarter of the range gets draws, so no
	// synchronized re-arrival window exists.
	var buckets [4]int
	for _, d := range a {
		buckets[int(d*4/ceil)]++
	}
	for q, c := range buckets {
		if c < n/10 {
			t.Fatalf("quartile %d holds %d/%d draws — jitter leaves re-arrival windows", q, c, n)
		}
	}

	// 4. Reproducibility: same seed, same sequence; different seed,
	// different sequence.
	b := draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded jitter not reproducible at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	c2 := draw(43)
	same := 0
	for i := range a {
		if a[i] == c2[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds drew identical jitter sequences")
	}
}

// TestBackoffExponentialCeiling: the jitter ceiling doubles per attempt
// and clamps at MaxDelay.
func TestBackoffExponentialCeiling(t *testing.T) {
	c, err := New(Config{BaseURL: "http://x", Seed: 7, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	maxOf := func(attempt int) time.Duration {
		var max time.Duration
		for i := 0; i < 300; i++ {
			if d := c.backoff(attempt, 0); d > max {
				max = d
			}
		}
		return max
	}
	m1, m4, m20 := maxOf(1), maxOf(4), maxOf(20)
	if m1 >= 10*time.Millisecond {
		t.Fatalf("attempt 1 max %v should stay under BaseDelay", m1)
	}
	if m4 <= 40*time.Millisecond || m4 >= 80*time.Millisecond {
		t.Fatalf("attempt 4 max %v should roam (40ms, 80ms)", m4)
	}
	if m20 >= 80*time.Millisecond {
		t.Fatalf("attempt 20 max %v must clamp under MaxDelay", m20)
	}
}

// TestSubscribeParsesAndReconnects: the SSE subscriber parses frames,
// survives a mid-stream connection drop, and resumes with Last-Event-ID.
func TestSubscribeParsesAndReconnects(t *testing.T) {
	var conns atomic.Int32
	var lastEventIDs []string
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := conns.Add(1)
		mu.Lock()
		lastEventIDs = append(lastEventIDs, r.Header.Get("Last-Event-ID"))
		mu.Unlock()
		w.Header().Set("Content-Type", "text/event-stream")
		fl := w.(http.Flusher)
		switch n {
		case 1:
			fmt.Fprintf(w, "id: 1\nevent: window\ndata: {\"seq\":1}\n\n")
			fmt.Fprintf(w, "id: 2\nevent: window\ndata: {\"seq\":2}\n\n")
			fl.Flush()
			// Drop the connection mid-frame: a truncated event the
			// subscriber must discard, not deliver.
			fmt.Fprintf(w, "id: 3\nevent: window\ndata: {\"se")
			fl.Flush()
			hj, _ := w.(http.Hijacker)
			conn, _, _ := hj.Hijack()
			conn.Close()
		case 2:
			fmt.Fprintf(w, "id: 3\nevent: window\ndata: {\"seq\":3}\n\n")
			fl.Flush()
			// Clean close: subscription ends without error.
		}
	}))
	defer ts.Close()

	c := fastClient(t, ts.URL, func(cfg *Config) { cfg.Tenant = "alice" })
	var got []Event
	err := c.Subscribe(context.Background(), SubscribeOptions{}, func(ev Event) error {
		got = append(got, ev)
		return nil
	})
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("events = %d, want 3 (truncated frame must not be delivered)", len(got))
	}
	for i, want := range []int64{1, 2, 3} {
		if got[i].ID != want || got[i].Type != "window" {
			t.Fatalf("event %d = {id %d, type %q}, want {id %d, type window}", i, got[i].ID, got[i].Type, want)
		}
	}
	if string(got[2].Data) != `{"seq":3}` {
		t.Fatalf("event 3 data = %q", got[2].Data)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lastEventIDs) != 2 || lastEventIDs[0] != "" || lastEventIDs[1] != "2" {
		t.Fatalf("Last-Event-ID per connection = %q, want [\"\", \"2\"]", lastEventIDs)
	}
}

// TestSubscribeCallbackErrorStops: fn failing ends the subscription with
// that error; no reconnect happens.
func TestSubscribeCallbackErrorStops(t *testing.T) {
	var conns atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprintf(w, "id: 1\nevent: window\ndata: {}\n\n")
	}))
	defer ts.Close()

	c := fastClient(t, ts.URL, nil)
	sentinel := errors.New("enough")
	err := c.Subscribe(context.Background(), SubscribeOptions{}, func(Event) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the callback's sentinel", err)
	}
	if conns.Load() != 1 {
		t.Fatalf("conns = %d; a callback error must not reconnect", conns.Load())
	}
}

// TestSubscribeGivesUpAfterConsecutiveFailures bounds the reconnect loop
// when the server is gone.
func TestSubscribeGivesUpAfterConsecutiveFailures(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj, _ := w.(http.Hijacker)
		conn, _, _ := hj.Hijack()
		conn.Close()
	}))
	defer ts.Close()

	c := fastClient(t, ts.URL, nil)
	err := c.Subscribe(context.Background(), SubscribeOptions{MaxReconnects: 3}, func(Event) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "consecutive reconnect failures") {
		t.Fatalf("err = %v, want reconnect give-up", err)
	}
}

// TestSubscribeRejectedByQuota: a 429 on subscribe is retried with the
// backoff, then surfaces once the budget runs out.
func TestSubscribeRejectedByQuota(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"tenant over quota"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := fastClient(t, ts.URL, func(cfg *Config) {
		cfg.OnRetry = func(RetryInfo) { cancel() } // don't actually wait out Retry-After
	})
	err := c.Subscribe(ctx, SubscribeOptions{MaxReconnects: 2}, func(Event) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want cancellation during the honored backoff", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("hits = %d, want 1 before backoff", hits.Load())
	}
}

// TestSubscribeBadRequestNotRetried: a definitive 4xx ends the
// subscription immediately.
func TestSubscribeBadRequestNotRetried(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"bad top"}`, http.StatusBadRequest)
	}))
	defer ts.Close()

	c := fastClient(t, ts.URL, nil)
	err := c.Subscribe(context.Background(), SubscribeOptions{}, func(Event) error { return nil })
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want *APIError 400", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("hits = %d, want no retry on 400", hits.Load())
	}
}

// TestRetryAfterHTTPDate: the date form of Retry-After parses into a
// forward-looking duration.
func TestRetryAfterHTTPDate(t *testing.T) {
	resp := &http.Response{Header: http.Header{}}
	resp.Header.Set("Retry-After", time.Now().Add(3*time.Second).UTC().Format(http.TimeFormat))
	if d := retryAfterOf(resp); d <= 0 || d > 3*time.Second {
		t.Fatalf("date Retry-After = %v, want (0s, 3s]", d)
	}
	resp.Header.Set("Retry-After", "garbage")
	if d := retryAfterOf(resp); d != 0 {
		t.Fatalf("garbage Retry-After = %v, want 0", d)
	}
}
