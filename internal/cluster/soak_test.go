package cluster_test

// The kill/restart soak: retrying clients hammer the router while a
// reaper cycles shards down and up — abrupt kills, restarts with EMPTY
// model registries on the same address. Run under -race by `make
// chaos-cluster`. The contract:
//
//   - zero hangs: the whole soak completes inside its deadline;
//   - byte parity survives failover: every successful estimate equals
//     the pre-soak golden for its workload;
//   - the routed books balance exactly: requests == relayed{primary} +
//     relayed{failover} + Σ rejected{reason};
//   - the cluster re-converges: after the last restart every shard
//     serves the same fingerprint again.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spire/internal/client"
	"spire/internal/testutil"
)

func TestClusterKillRestartSoak(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, model := testutil.TrainModel(t, 1)
	tc := startCluster(t, clusterOpts{shards: 4})
	id := tc.pushModel(t, model)
	tc.waitConverged(t, id, 5*time.Second)

	const workloads = 4
	plain, err := client.New(client.Config{BaseURL: tc.url, Seed: 1})
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

	const (
		goroutines = 6
		iterations = 25
	)
	var calls, failures, pushes atomic.Int64
	var wg sync.WaitGroup
	// The estimators keep sending until the reaper is done, so requests
	// flow while every shard dies however fast each one is served.
	var reaping atomic.Bool
	reaping.Store(true)

	// Estimators: retrying clients; successes must match goldens even
	// when served by a failover shard.
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.New(client.Config{
				BaseURL:     tc.url,
				Tenant:      fmt.Sprintf("tenant-%d", g%3),
				HTTPClient:  &http.Client{Timeout: 20 * time.Second},
				MaxAttempts: 6,
				BaseDelay:   5 * time.Millisecond,
				MaxDelay:    100 * time.Millisecond,
				Seed:        int64(g + 1),
			})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; (i < iterations || reaping.Load()) && ctx.Err() == nil; i++ {
				k := (g + i) % workloads
				calls.Add(1)
				res, err := c.Estimate(ctx, testutil.Workload(k), client.EstimateOptions{})
				if err != nil {
					// Mid-kill the router may answer 503 (no shard) and the
					// budget can run out; that is a classified failure, not
					// a parity break. 4xx would be a real bug.
					failures.Add(1)
					var ae *client.APIError
					if errors.As(err, &ae) && ae.Status != http.StatusServiceUnavailable &&
						ae.Status != http.StatusTooManyRequests && ae.Status != http.StatusBadGateway {
						t.Errorf("estimator %d: unexpected API failure: %v", g, err)
					}
					continue
				}
				if !bytes.Equal(res.Raw, goldens[k]) {
					t.Errorf("estimator %d iter %d: routed estimate diverged from golden (%d vs %d bytes)",
						g, i, len(res.Raw), len(goldens[k]))
				}
				time.Sleep(time.Millisecond)
			}
		}(g)
	}

	// Pusher: re-POSTs the same model through the router. Content
	// addressing makes this idempotent; it races the sync loop on
	// freshly restarted shards, which is the point.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20 && ctx.Err() == nil; i++ {
			code, _, _ := testutil.HTTPPost(t, tc.url+"/v1/models", "application/octet-stream", model)
			if code == http.StatusOK || code == http.StatusAccepted {
				pushes.Add(1)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	// Reaper: kills each shard in turn — abruptly — waits, restarts it
	// empty on the same address, and lets the router re-replicate.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer reaping.Store(false)
		r := rand.New(rand.NewSource(7))
		for round := 0; round < 2 && ctx.Err() == nil; round++ {
			for _, sh := range tc.shards {
				sh.stop()
				time.Sleep(time.Duration(30+r.Intn(60)) * time.Millisecond)
				sh.start()
				// Let health + model sync catch up before the next kill so
				// at most one shard is down at a time.
				time.Sleep(150 * time.Millisecond)
			}
		}
	}()

	wg.Wait()
	if ctx.Err() != nil {
		t.Fatal("soak hit its deadline — something hung")
	}

	// Re-convergence: every (restarted, empty) shard must be serving the
	// fingerprint again.
	tc.waitConverged(t, id, 10*time.Second)
	for i, sh := range tc.shards {
		srv := sh.server()
		if srv == nil {
			t.Fatalf("shard %d not running after soak", i)
		}
		_, info := srv.Models().Current()
		if info == nil || info.ID != id {
			t.Errorf("shard %d model after soak = %+v, want %s", i, info, id)
		}
	}

	total, failed := calls.Load(), failures.Load()
	exposition := testutil.ScrapeMetrics(t, tc.url)
	failovers := testutil.MustMetric(t, exposition, "spire_route_failovers_total")
	t.Logf("soak: %d calls, %d failed, %d model pushes, %v failovers", total, failed, pushes.Load(), failovers)

	// The identity that makes the soak a test and not a demo.
	testutil.AssertRouteBooksBalance(t, exposition, "/v1/estimate")
	if failed*4 > total {
		t.Fatalf("error rate too high: %d/%d calls failed", failed, total)
	}
	if pushes.Load() == 0 {
		t.Fatal("no model push succeeded during the soak")
	}
	// Requests kept flowing while shards died, so some must have been
	// answered by a non-home shard.
	if failovers == 0 {
		t.Error("soak killed every shard twice yet recorded zero failovers")
	}
}
