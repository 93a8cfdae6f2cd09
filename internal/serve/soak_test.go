package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spire/internal/core"
	"spire/internal/testutil"
)

// scrapeCounter extracts one un-labeled counter value from a Prometheus
// text exposition.
func scrapeCounter(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("bad %s sample %q: %v", name, line, err)
			}
			return v
		}
	}
	t.Fatalf("counter %s not found in:\n%s", name, body)
	return 0
}

// TestSoakConcurrentEstimateHotSwap is the serving tier's race gate: 64
// concurrent clients estimate the same workload while a swapper goroutine
// hot-swaps between two models and a poller scrapes /metrics. Every
// response must be exactly the estimation of ONE of the two models (no
// torn reads across the swap), and every scraped counter must be
// monotonic.
func TestSoakConcurrentEstimateHotSwap(t *testing.T) {
	testutil.CheckGoroutines(t)
	s, ts := newTestServer(t, Config{})
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
	if idA == idB {
		t.Fatal("test models must differ")
	}
	if _, err := s.Models().Load(bytes.NewReader(modelA), "soak"); err != nil {
		t.Fatal(err)
	}

	// The exact estimation each model must produce for the soak workload.
	samples := testutil.Samples()
	ix := core.IndexWorkload(core.Dataset{Samples: samples})
	expected := make(map[string][]byte, 2)
	for id, ens := range map[string]*core.Ensemble{idA: ensA, idB: ensB} {
		est, err := ens.BatchEstimate(context.Background(), ix, core.EstimateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(est)
		if err != nil {
			t.Fatal(err)
		}
		expected[id] = raw
	}
	if bytes.Equal(expected[idA], expected[idB]) {
		t.Fatal("the two models must estimate differently for torn reads to be observable")
	}

	const clients = 64
	iters := 25
	if testing.Short() {
		iters = 5
	}
	reqBody, err := json.Marshal(EstimateRequest{Samples: samples})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Swapper: alternate the served model as fast as uploads complete.
	swaps := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
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

	// Poller: every scraped counter must be non-decreasing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastServed, lastSwaps float64
		for !stop.Load() {
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Errorf("metrics scrape: %v", err)
				return
			}
			raw, err := readAll(resp)
			if err != nil {
				t.Errorf("metrics scrape: %v", err)
				return
			}
			served := scrapeCounter(t, string(raw), "spire_estimates_served_total")
			swapped := scrapeCounter(t, string(raw), "spire_model_swaps_total")
			if served < lastServed {
				t.Errorf("spire_estimates_served_total went backwards: %g -> %g", lastServed, served)
				return
			}
			if swapped < lastSwaps {
				t.Errorf("spire_model_swaps_total went backwards: %g -> %g", lastSwaps, swapped)
				return
			}
			lastServed, lastSwaps = served, swapped
			time.Sleep(time.Millisecond)
		}
	}()

	// Clients: every response must match one model exactly.
	var torn atomic.Int64
	var served atomic.Int64
	var clientWG sync.WaitGroup
	for c := 0; c < clients; c++ {
		clientWG.Add(1)
		go func() {
			defer clientWG.Done()
			for i := 0; i < iters; i++ {
				resp, err := http.Post(ts.URL+"/v1/estimate", "application/json",
					bytes.NewReader(reqBody))
				if err != nil {
					t.Errorf("estimate: %v", err)
					return
				}
				body, err := readAll(resp)
				if err != nil {
					t.Errorf("read body: %v", err)
					return
				}
				if resp.StatusCode != 200 {
					t.Errorf("estimate status %d: %s", resp.StatusCode, body)
					return
				}
				var er EstimateResponse
				if err := json.Unmarshal(body, &er); err != nil {
					t.Errorf("bad response: %v", err)
					return
				}
				want, ok := expected[er.Model]
				if !ok {
					t.Errorf("response names unknown model %s", er.Model)
					return
				}
				got, _ := json.Marshal(er.Estimation)
				if !bytes.Equal(got, want) {
					torn.Add(1)
					t.Errorf("torn read: model %s served estimation\n%s\nwant\n%s",
						er.Model, got, want)
					return
				}
				if hdr := resp.Header.Get("X-Spire-Model"); hdr != er.Model {
					t.Errorf("header model %s != body model %s", hdr, er.Model)
					return
				}
				served.Add(1)
			}
		}()
	}
	clientWG.Wait()
	stop.Store(true)
	wg.Wait()

	if torn.Load() > 0 {
		t.Fatalf("%d torn reads", torn.Load())
	}
	want := float64(served.Load())
	if got := s.mEstimates.Value(); got != want {
		t.Errorf("spire_estimates_served_total = %g, want %g", got, want)
	}
	if swaps < 2 {
		t.Errorf("only %d swaps completed; soak did not exercise hot-swapping", swaps)
	}
	t.Logf("soak: %d estimates across %d hot-swaps", served.Load(), swaps)
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}
