package cluster_test

// Chaos on the router↔shard hop: the faultinject transport stalls,
// resets, slow-writes, and truncates the router's OWN upstream
// exchanges — relays, health probes, model pushes — while plain clients
// talk to the router over a clean network. The router must absorb the
// damaged hop the way a client would: failover and per-shard retries
// turn injected faults into byte-identical successes or classified
// errors, never hangs and never corrupted relays, with the routed books
// still balancing exactly.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spire/internal/client"
	"spire/internal/faultinject"
	"spire/internal/testutil"
)

func TestChaosClusterHop(t *testing.T) {
	testutil.CheckGoroutines(t)
	chaos := faultinject.NewChaos(faultinject.ChaosConfig{
		Seed:          11,
		StallRate:     0.08,
		Stall:         time.Millisecond,
		ResetRate:     0.10,
		SlowriteRate:  0.08,
		ChunkSize:     256,
		ChunkDelay:    50 * time.Microsecond,
		TruncateRate:  0.10,
		TruncateAfter: 64,
	})
	_, model := testutil.TrainModel(t, 1)
	tc := startCluster(t, clusterOpts{shards: 4, transport: chaos.Transport(nil)})
	id := tc.pushModel(t, model)
	tc.waitConverged(t, id, 10*time.Second)

	// Goldens through the chaotic hop: retries make them land; bytes are
	// bytes regardless of the weather between router and shard.
	const workloads = 4
	plain, err := client.New(client.Config{BaseURL: tc.url, Seed: 2, MaxAttempts: 8,
		BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond})
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

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	const goroutines, iterations = 6, 12
	var calls, failures atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.New(client.Config{
				BaseURL:     tc.url,
				Tenant:      fmt.Sprintf("tenant-%d", g%3),
				HTTPClient:  &http.Client{Timeout: 20 * time.Second},
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
					failures.Add(1)
					var ae *client.APIError
					if errors.As(err, &ae) && ae.Status != http.StatusTooManyRequests &&
						ae.Status != http.StatusServiceUnavailable && ae.Status != http.StatusBadGateway {
						t.Errorf("goroutine %d: unexpected API failure through chaotic hop: %v", g, err)
					}
					continue
				}
				if !bytes.Equal(res.Raw, goldens[k]) {
					t.Errorf("goroutine %d iter %d: estimate diverged through chaotic hop (%d vs %d bytes)",
						g, i, len(res.Raw), len(goldens[k]))
				}
			}
		}(g)
	}
	wg.Wait()
	if ctx.Err() != nil {
		t.Fatal("chaos soak hit its deadline — something hung")
	}

	total, failed := calls.Load(), failures.Load()
	t.Logf("cluster hop chaos: %d calls, %d failed, faults %v", total, failed, chaos.Counts())
	if chaos.Total() == 0 {
		t.Fatal("chaos injected nothing — the soak tested a clean hop")
	}
	if failed*4 > total {
		t.Fatalf("error rate too high: %d/%d calls failed", failed, total)
	}
	testutil.AssertRouteBooksBalance(t, testutil.ScrapeMetrics(t, tc.url), "/v1/estimate")
}

// TestChaosClusterConvergence: model replication itself must converge
// through a damaged hop — push retries plus the sync sweep repair any
// shard whose accept was cut mid-flight.
func TestChaosClusterConvergence(t *testing.T) {
	testutil.CheckGoroutines(t)
	chaos := faultinject.NewChaos(faultinject.ChaosConfig{
		Seed:          13,
		ResetRate:     0.25,
		TruncateRate:  0.20,
		TruncateAfter: 128,
	})
	_, model := testutil.TrainModel(t, 1)
	tc := startCluster(t, clusterOpts{shards: 5, transport: chaos.Transport(nil)})
	id := tc.pushModel(t, model)
	// A quarter of upstream exchanges die, yet content-addressed
	// convergence is monotone: every sweep can only move shards toward
	// the fingerprint.
	tc.waitConverged(t, id, 20*time.Second)
	if chaos.Total() == 0 {
		t.Fatal("chaos injected nothing")
	}
	t.Logf("converged on %s through faults %v", id[:12], chaos.Counts())
}
