package client_test

// Chaos coverage for the SPB1 binary wire path: the same fault families
// the JSON soak survives must leave binary-mode callers with either a
// byte-identical success or a classified error — a truncated binary
// frame must surface as a decode/transport error, never a hang and
// never a partial-success 200.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spire/internal/client"
	"spire/internal/faultinject"
	"spire/internal/testutil"
	"spire/internal/wire"
)

// TestChaosBinTransport drives binary-wire estimates through the chaos
// RoundTripper. Every success must be byte-identical to the fault-free
// binary golden, and the binary golden must decode to the same
// estimation JSON mode returns — chaos or not, the transport encoding
// never changes the numbers.
func TestChaosBinTransport(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := newSoakServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const (
		goroutines = 6
		iterations = 10
		workloads  = 4
	)

	plain, err := client.New(client.Config{BaseURL: ts.URL, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	binGoldens := make([][]byte, workloads)
	for k := range binGoldens {
		jres, err := plain.Estimate(context.Background(), testutil.Workload(k), client.EstimateOptions{})
		if err != nil {
			t.Fatalf("json golden %d: %v", k, err)
		}
		bres, err := plain.Estimate(context.Background(), testutil.Workload(k), client.EstimateOptions{Wire: client.WireBin})
		if err != nil {
			t.Fatalf("bin golden %d: %v", k, err)
		}
		if !wire.IsBinMedia(http.DetectContentType(bres.Raw)) {
			// DetectContentType can't know SPB1; just check the frame shape.
			if n, ferr := wire.FrameSize(bres.Raw); ferr != nil || n != len(bres.Raw) {
				t.Fatalf("bin golden %d is not one SPB1 frame (n=%d err=%v)", k, n, ferr)
			}
		}
		// Cross-encoding agreement: the decoded binary estimation
		// re-marshals to exactly the JSON-mode estimation.
		var jbody struct {
			Estimation json.RawMessage `json:"estimation"`
		}
		if err := json.Unmarshal(jres.Raw, &jbody); err != nil {
			t.Fatal(err)
		}
		bin, err := json.Marshal(bres.Estimation)
		if err != nil {
			t.Fatal(err)
		}
		if string(bin) != string(jbody.Estimation) {
			t.Fatalf("workload %d: bin estimation != json estimation\nbin:  %s\njson: %s", k, bin, jbody.Estimation)
		}
		binGoldens[k] = bres.Raw
	}

	chaos := faultinject.NewChaos(faultinject.ChaosConfig{
		Seed:          3,
		StallRate:     0.10,
		Stall:         time.Millisecond,
		ResetRate:     0.12,
		SlowriteRate:  0.08,
		ChunkSize:     256,
		ChunkDelay:    50 * time.Microsecond,
		TruncateRate:  0.12,
		TruncateAfter: 48,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	var calls, failures atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.New(client.Config{
				BaseURL: ts.URL,
				Tenant:  fmt.Sprintf("tenant-%d", g%3),
				HTTPClient: &http.Client{
					Transport: chaos.Transport(nil),
					Timeout:   20 * time.Second,
				},
				MaxAttempts: 6,
				BaseDelay:   2 * time.Millisecond,
				MaxDelay:    50 * time.Millisecond,
				Seed:        int64(g + 1),
			})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < iterations; i++ {
				k := (g + i) % workloads
				calls.Add(1)
				res, err := c.Estimate(ctx, testutil.Workload(k), client.EstimateOptions{Wire: client.WireBin})
				if err != nil {
					failures.Add(1)
					var ae *client.APIError
					if errors.As(err, &ae) && ae.Status != http.StatusTooManyRequests {
						t.Errorf("goroutine %d: non-overload API failure: %v", g, err)
					}
					continue
				}
				if !bytes.Equal(res.Raw, binGoldens[k]) {
					t.Errorf("goroutine %d iter %d: binary estimate diverged from golden (%d vs %d bytes)",
						g, i, len(res.Raw), len(binGoldens[k]))
				}
			}
		}(g)
	}
	wg.Wait()
	if ctx.Err() != nil {
		t.Fatal("binary soak hit its deadline — something hung")
	}
	total, failed := calls.Load(), failures.Load()
	t.Logf("bin soak: %d calls, %d failed, faults %v", total, failed, chaos.Counts())
	if chaos.Total() == 0 {
		t.Fatal("chaos injected nothing — the soak tested a clean network")
	}
	if failed*10 > total {
		t.Fatalf("error rate too high: %d/%d calls failed", failed, total)
	}
	testutil.AssertServeBooksBalance(t, testutil.ScrapeMetrics(t, ts.URL))
}

// TestChaosBinFeedTruncation pins the feed-side failure contract: a
// binary feed whose last frame is cut off (or whose bytes are garbage)
// must come back as a prompt 400 decode error — single-shot, never
// retried, never a partial-success 200 — while frames decoded before
// the damage still advance the stream, exactly like whole CSV lines
// before a bad one.
func TestChaosBinFeedTruncation(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := newSoakServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c, err := client.New(client.Config{BaseURL: ts.URL, Seed: 1, MaxAttempts: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	batch := func(w int) *wire.SampleBatch {
		return &wire.SampleBatch{TS: float64(w), Window: w, Samples: testutil.Workload(w % 4)[:20]}
	}

	// A clean two-frame feed succeeds and accounts both intervals.
	var feed []byte
	feed = wire.AppendSampleBatch(feed, batch(1))
	feed = wire.AppendSampleBatch(feed, batch(2))
	res, err := c.FeedStreamBin(ctx, bytes.NewReader(feed))
	if err != nil {
		t.Fatalf("clean bin feed: %v", err)
	}
	if res.Bytes != int64(len(feed)) {
		t.Fatalf("fed %d bytes, server reports %d", len(feed), res.Bytes)
	}
	var st struct {
		Intervals int `json:"intervals"`
		Samples   int `json:"samples"`
	}
	if err := json.Unmarshal(res.Stats, &st); err != nil {
		t.Fatal(err)
	}
	if st.Intervals != 2 || st.Samples != 40 {
		t.Fatalf("stats after clean feed: %+v, want 2 intervals / 40 samples", st)
	}

	wantAPIStatus := func(err error, status int, frag string) {
		t.Helper()
		if err == nil {
			t.Fatalf("damaged feed succeeded, want %d with %q", status, frag)
		}
		var ae *client.APIError
		if !errors.As(err, &ae) {
			t.Fatalf("damaged feed error %v, want *APIError", err)
		}
		if ae.Status != status || !strings.Contains(ae.Message, frag) {
			t.Fatalf("damaged feed: got status %d message %q, want %d containing %q",
				ae.Status, ae.Message, status, frag)
		}
	}

	// One good frame followed by a truncated one: 400, with the explicit
	// truncation diagnostic. The good frame still landed (interval 3).
	good := wire.AppendSampleBatch(nil, batch(3))
	cut := wire.AppendSampleBatch(nil, batch(4))
	_, err = c.FeedStreamBin(ctx, bytes.NewReader(append(append([]byte(nil), good...), cut[:len(cut)-7]...)))
	wantAPIStatus(err, http.StatusBadRequest, "truncated frame")

	// Garbage where a frame header should be: 400 before buffering junk.
	_, err = c.FeedStreamBin(ctx, bytes.NewReader([]byte("perf,csv,is,not,spb1\n")))
	wantAPIStatus(err, http.StatusBadRequest, "bad stream frame")

	// A frame whose declared type is unknown: 400 from frame validation.
	bad := wire.AppendSampleBatch(nil, batch(5))
	bad[4] = 0x7F
	_, err = c.FeedStreamBin(ctx, bytes.NewReader(bad))
	wantAPIStatus(err, http.StatusBadRequest, "bad stream frame")

	// The good frame before the truncation advanced the stream; the
	// damaged tails did not land as partial intervals.
	res, err = c.FeedStreamBin(ctx, bytes.NewReader(wire.AppendSampleBatch(nil, batch(6))))
	if err != nil {
		t.Fatalf("follow-up feed: %v", err)
	}
	if err := json.Unmarshal(res.Stats, &st); err != nil {
		t.Fatal(err)
	}
	if st.Intervals != 4 || st.Samples != 80 {
		t.Fatalf("stats after damaged feeds: %+v, want exactly 4 intervals / 80 samples", st)
	}
	if ctx.Err() != nil {
		t.Fatal("feed test hit its deadline — something hung")
	}
}
