package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spire/internal/core"
	"spire/internal/testutil"
)

// soakWindowDataset reproduces the workload a live window of k soak
// intervals indexes: every interval contributes one m1 and one m2 sample
// with identical values, so the expected estimation depends only on the
// model and on k. Absolute window tags do not change the estimation
// (identical samples collapse under the time-weighted mean and the
// measurement dedup alike), so tags 1..k stand in for whatever interval
// numbers the live window happens to span.
func soakWindowDataset(k int) core.Dataset {
	var d core.Dataset
	for w := 1; w <= k; w++ {
		d.Add(core.Sample{Metric: "m1", T: 100, W: 50, M: 10, Window: w})
		d.Add(core.Sample{Metric: "m2", T: 100, W: 50, M: 7, Window: w})
	}
	return d
}

// TestSoakStreamHotSwap is the streaming tier's race gate: 8 writers
// feed intervals over POST /v1/stream while a swapper hot-swaps between
// two models and 16 SSE clients consume GET /v1/stream. Every window a
// client sees must be internally consistent — sequence numbers strictly
// increasing, bookkeeping matching the window span, and the estimation
// byte-identical to what the window's claimed model produces for its
// interval count (a half-swapped model or a torn index would break
// that). Interval accounting must conserve: every completed interval is
// either windowed or counted as a backpressure drop.
func TestSoakStreamHotSwap(t *testing.T) {
	testutil.CheckGoroutines(t)
	const (
		windowSpan = 4
		writers    = 8
		sseClients = 16
	)
	perWriter := 40
	if testing.Short() {
		perWriter = 10
	}
	total := writers * perWriter

	s, ts := newTestServer(t, Config{StreamWindow: windowSpan})
	ensA, modelA := testutil.TrainModel(t, 1)
	ensB, modelB := testutil.TrainModel(t, 3)
	idA, err := ensA.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	idB, err := ensB.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Models().Load(bytes.NewReader(modelA), "soak"); err != nil {
		t.Fatal(err)
	}

	// expected[model][k] is the exact estimation a window of k intervals
	// must carry when served by that model.
	expected := make(map[string][][]byte, 2)
	for id, ens := range map[string]*core.Ensemble{idA: ensA, idB: ensB} {
		byK := make([][]byte, windowSpan+1)
		for k := 1; k <= windowSpan; k++ {
			ix := core.IndexWorkload(soakWindowDataset(k))
			est, err := ens.BatchEstimate(context.Background(), ix, core.EstimateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if byK[k], err = json.Marshal(est); err != nil {
				t.Fatal(err)
			}
		}
		expected[id] = byK
	}
	if bytes.Equal(expected[idA][windowSpan], expected[idB][windowSpan]) {
		t.Fatal("the two models must estimate differently for torn windows to be observable")
	}

	// Clients subscribe before the first interval so window seq 1 is
	// reachable by everyone; drops can only come from backpressure.
	var mu sync.Mutex
	modelsSeen := make(map[string]bool)
	var maxSeq uint64
	perClient := make([]int, sseClients)
	var clientWG sync.WaitGroup
	for c := 0; c < sseClients; c++ {
		frames, stopSub := sseSubscribe(t, ts.URL, "")
		defer stopSub()
		clientWG.Add(1)
		go func(c int, frames <-chan sseFrame) {
			defer clientWG.Done()
			var last uint64
			for f := range frames {
				if f.Event != "window" || f.ID != f.Result.Seq {
					t.Errorf("client %d: malformed frame %+v", c, f)
					return
				}
				if f.Result.Seq <= last {
					t.Errorf("client %d: seq not strictly increasing: %d then %d", c, last, f.Result.Seq)
					return
				}
				last = f.Result.Seq
				k := windowSpan
				if f.Result.Seq < windowSpan {
					k = int(f.Result.Seq)
				}
				if f.Result.Intervals != k || f.Result.Samples != 2*k {
					t.Errorf("client %d: window %d bookkeeping %d intervals / %d samples, want %d / %d",
						c, f.Result.Seq, f.Result.Intervals, f.Result.Samples, k, 2*k)
					return
				}
				if f.Result.Error != "" || f.Result.Estimation == nil {
					t.Errorf("client %d: window %d carried no estimation: %+v", c, f.Result.Seq, f.Result)
					return
				}
				want, ok := expected[f.Result.Model]
				if !ok {
					t.Errorf("client %d: window %d names unknown model %s", c, f.Result.Seq, f.Result.Model)
					return
				}
				got, err := json.Marshal(f.Result.Estimation)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if !bytes.Equal(got, want[k]) {
					t.Errorf("client %d: torn window %d (model %s):\n%s\nwant\n%s",
						c, f.Result.Seq, f.Result.Model, got, want[k])
					return
				}
				mu.Lock()
				modelsSeen[f.Result.Model] = true
				if f.Result.Seq > maxSeq {
					maxSeq = f.Result.Seq
				}
				perClient[c]++
				mu.Unlock()
			}
		}(c, frames)
	}

	// Swapper: alternate the served model as fast as uploads complete.
	var stop atomic.Bool
	var swapWG sync.WaitGroup
	swaps := 0
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		payloads := [2][]byte{modelB, modelA}
		for i := 0; !stop.Load(); i++ {
			resp, err := http.Post(ts.URL+"/v1/models", "application/json",
				bytes.NewReader(payloads[i%2]))
			if err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("swap %d: status %d", i, resp.StatusCode)
				return
			}
			swaps++
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Writers: globally unique timestamps, one complete interval per
	// POST. Arrival order across writers is arbitrary; the stream
	// windows by arrival, so out-of-order timestamps only raise
	// diagnostics.
	var tsCtr atomic.Int64
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				body := streamIntervalCSV(int(tsCtr.Add(1)))
				resp, err := http.Post(ts.URL+"/v1/stream", "text/csv", strings.NewReader(body))
				if err != nil {
					t.Errorf("feed: %v", err)
					return
				}
				raw, err := readAll(resp)
				if err != nil || resp.StatusCode != 200 {
					t.Errorf("feed status %d: %s (%v)", resp.StatusCode, raw, err)
					return
				}
			}
		}()
	}
	writerWG.Wait()

	// Drain: the final interval never completes (nothing arrives after
	// it), so exactly total-1 intervals were enqueued, each of which must
	// end up either windowed or counted as a queue drop. Poll the public
	// counters until the books balance, checking monotonicity on the way.
	deadline := time.Now().Add(60 * time.Second)
	var windows, dropped, lastWindows float64
	for {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := readAll(resp)
		if err != nil {
			t.Fatal(err)
		}
		windows = scrapeCounter(t, string(raw), "spire_stream_windows_total")
		dropped = scrapeCounter(t, string(raw), "spire_stream_windows_dropped_total")
		if windows < lastWindows {
			t.Fatalf("spire_stream_windows_total went backwards: %g -> %g", lastWindows, windows)
		}
		lastWindows = windows
		if windows+dropped >= float64(total-1) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream did not drain: windows=%g dropped=%g, want sum %d", windows, dropped, total-1)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if windows+dropped != float64(total-1) {
		t.Errorf("interval conservation violated: windows=%g + dropped=%g != %d", windows, dropped, total-1)
	}

	stop.Store(true)
	swapWG.Wait()

	// Closing the hub ends every SSE response; clients drain and exit.
	s.Close()
	clientWG.Wait()

	if len(modelsSeen) != 2 {
		t.Errorf("clients saw models %v, want both %s and %s", modelsSeen, idA, idB)
	}
	if maxSeq == 0 || float64(maxSeq) > windows {
		t.Errorf("max observed seq %d inconsistent with %g windows", maxSeq, windows)
	}
	for c, n := range perClient {
		if n == 0 {
			t.Errorf("client %d observed no windows", c)
		}
	}
	if swaps < 2 {
		t.Errorf("only %d swaps completed; soak did not exercise hot-swapping", swaps)
	}
	t.Logf("soak: %g windows (%g dropped) across %d swaps, max seq %d", windows, dropped, swaps, maxSeq)
}
