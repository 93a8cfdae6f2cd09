package client_test

// The chaos soak: N retrying clients hammer a live server through the
// faultinject chaos transport/listener under -race, asserting the
// overload contract end to end —
//
//   - bounded error rates: retries absorb injected faults, and the few
//     calls that still fail do so with classified errors, never hangs;
//   - byte-identical estimates: every successful /v1/estimate body
//     (degraded or not) equals the fault-free golden for its workload;
//   - accounting conservation: the server's books balance exactly,
//     requests == admitted + Σ rejected{reason} + degraded-served,
//     with the queue and inflight gauges back at zero;
//   - SSE integrity: a subscriber fed truncated frames never delivers a
//     partial event.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spire/internal/client"
	"spire/internal/faultinject"
	"spire/internal/serve"
	"spire/internal/testutil"
)

// newSoakServer builds a serve.Server with a deliberately small gate so
// the soak exercises admission, loads the model, and returns the server.
func newSoakServer(t testing.TB) *serve.Server {
	t.Helper()
	s := serve.New(serve.Config{
		MaxConcurrent:  4,
		AdmissionQueue: 16,
	})
	t.Cleanup(s.Close)
	_, model := testutil.TrainModel(t, 1)
	if _, err := s.Models().Load(bytes.NewReader(model), "soak"); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestChaosSoakTransport drives retrying clients through a chaos
// RoundTripper (stalls, resets, truncations) at a live server.
func TestChaosSoakTransport(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := newSoakServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const (
		goroutines = 8
		iterations = 12
		workloads  = 4
	)

	// Fault-free goldens, one per workload, via a plain client.
	plain, err := client.New(client.Config{BaseURL: ts.URL, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	goldens := make([][]byte, workloads)
	for k := range goldens {
		res, err := plain.Estimate(context.Background(), testutil.Workload(k), client.EstimateOptions{})
		if err != nil {
			t.Fatalf("golden %d: %v", k, err)
		}
		goldens[k] = res.Raw
	}

	chaos := faultinject.NewChaos(faultinject.ChaosConfig{
		Seed:          1,
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

	var calls, failures, degraded atomic.Int64
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
				res, err := c.Estimate(ctx, testutil.Workload(k), client.EstimateOptions{})
				if err != nil {
					// A surviving failure must be classified chaos damage
					// (transport fault or an honest 429 after retries) —
					// never a 5xx and never a hang.
					failures.Add(1)
					var ae *client.APIError
					if errors.As(err, &ae) && ae.Status != http.StatusTooManyRequests {
						t.Errorf("goroutine %d: non-overload API failure: %v", g, err)
					}
					continue
				}
				if res.Degraded {
					degraded.Add(1)
				}
				if !bytes.Equal(res.Raw, goldens[k]) {
					t.Errorf("goroutine %d iter %d: estimate diverged from golden (%d vs %d bytes)",
						g, i, len(res.Raw), len(goldens[k]))
				}
			}
		}(g)
	}
	wg.Wait()
	if ctx.Err() != nil {
		t.Fatal("soak hit its deadline — something hung")
	}

	total := calls.Load()
	failed := failures.Load()
	t.Logf("soak: %d calls, %d failed, %d degraded, %s, faults %v",
		total, failed, degraded.Load(), chaos, chaos.Counts())
	if chaos.Total() == 0 {
		t.Fatal("chaos injected nothing — the soak tested a clean network")
	}
	// Bounded error rate: retries should absorb nearly all injected
	// faults at these rates; one in ten surviving is already generous.
	if failed*10 > total {
		t.Fatalf("error rate too high: %d/%d calls failed", failed, total)
	}
	testutil.AssertServeBooksBalance(t, testutil.ScrapeMetrics(t, ts.URL))
}

// TestChaosSoakListener is the server-side mirror: the chaos listener
// breaks accepted connections while plain retrying clients keep calling.
func TestChaosSoakListener(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := newSoakServer(t)

	// Golden through a clean listener against the same server state.
	clean := httptest.NewServer(s.Handler())
	defer clean.Close()
	plain, err := client.New(client.Config{BaseURL: clean.URL, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := plain.Estimate(context.Background(), testutil.Workload(0), client.EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	chaos := faultinject.NewChaos(faultinject.ChaosConfig{
		Seed:          2,
		StallRate:     0.10,
		Stall:         time.Millisecond,
		ResetRate:     0.15,
		SlowriteRate:  0.10,
		ChunkSize:     128,
		ChunkDelay:    50 * time.Microsecond,
		TruncateRate:  0.10,
		TruncateAfter: 32,
	})
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(chaos.Listener(ln))
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	const goroutines, iterations = 6, 10
	var calls, failures atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.New(client.Config{
				BaseURL:     base,
				HTTPClient:  &http.Client{Timeout: 20 * time.Second},
				MaxAttempts: 6,
				BaseDelay:   2 * time.Millisecond,
				MaxDelay:    50 * time.Millisecond,
				Seed:        int64(100 + g),
			})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < iterations; i++ {
				calls.Add(1)
				res, err := c.Estimate(ctx, testutil.Workload(0), client.EstimateOptions{})
				if err != nil {
					failures.Add(1)
					continue
				}
				if !bytes.Equal(res.Raw, golden.Raw) {
					t.Errorf("goroutine %d iter %d: body diverged through chaos listener", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
	if ctx.Err() != nil {
		t.Fatal("soak hit its deadline — something hung")
	}
	total, failed := calls.Load(), failures.Load()
	t.Logf("listener soak: %d calls, %d failed, faults %v", total, failed, chaos.Counts())
	if chaos.Total() == 0 {
		t.Fatal("chaos injected nothing")
	}
	if failed*5 > total {
		t.Fatalf("error rate too high: %d/%d calls failed", failed, total)
	}
	// Books balance even though many requests died on the wire: the
	// identity only counts exchanges the server actually admitted.
	testutil.AssertServeBooksBalance(t, testutil.ScrapeMetrics(t, clean.URL))
}

// streamIntervalCSV renders one complete perf-stat interval over the
// soak model's metrics.
func streamIntervalCSV(ts int) string {
	return fmt.Sprintf("%d.0,100,,cycles,1,100.00,,\n%d.0,50,,instructions,1,100.00,,\n"+
		"%d.0,10,,m1,1,25.00,,\n%d.0,7,,m2,1,25.00,,\n", ts, ts, ts, ts)
}

// TestChaosSSESubscription: a subscriber whose transport truncates SSE
// frames reconnects and never delivers a partial event.
func TestChaosSSESubscription(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := newSoakServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	chaos := faultinject.NewChaos(faultinject.ChaosConfig{
		Seed:          3,
		TruncateRate:  1,    // every subscriber connection dies mid-frame...
		TruncateAfter: 2048, // ...after a few whole frames got through
	})
	sub, err := client.New(client.Config{
		BaseURL:     ts.URL,
		HTTPClient:  &http.Client{Transport: chaos.Transport(nil)},
		BaseDelay:   time.Millisecond,
		MaxDelay:    10 * time.Millisecond,
		Seed:        9,
		MaxAttempts: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	feeder, err := client.New(client.Config{BaseURL: ts.URL, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const want = 8
	var got atomic.Int64
	subErr := make(chan error, 1)
	go func() {
		subErr <- sub.Subscribe(ctx, client.SubscribeOptions{MaxReconnects: 50}, func(ev client.Event) error {
			if ev.Type != "window" {
				return fmt.Errorf("unexpected event type %q", ev.Type)
			}
			if !json.Valid(ev.Data) {
				return fmt.Errorf("partial frame delivered: %q", ev.Data)
			}
			if got.Add(1) >= want {
				return io.EOF // sentinel: seen enough
			}
			return nil
		})
	}()

	// Feed intervals until the subscriber has seen enough windows. Each
	// feed closes the previous interval, so windows keep flowing even as
	// the subscriber's connection keeps dying.
	for i := 1; got.Load() < want && ctx.Err() == nil; i++ {
		if _, err := feeder.FeedStream(ctx, strings.NewReader(streamIntervalCSV(i))); err != nil {
			t.Fatalf("feed %d: %v", i, err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	select {
	case err := <-subErr:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("subscription ended with %v, want the io.EOF sentinel after %d clean events", err, want)
		}
	case <-ctx.Done():
		t.Fatal("subscriber never accumulated enough events")
	}
	if chaos.Total() == 0 {
		t.Fatal("chaos injected nothing")
	}
	t.Logf("sse soak: %d clean events through faults %v", got.Load(), chaos.Counts())
}
