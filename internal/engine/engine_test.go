package engine

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"spire/internal/core"
	"spire/internal/metrics"
)

// testModel trains a small two-metric ensemble.
func testModel(t testing.TB) *core.Ensemble {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var d core.Dataset
	for i := 0; i < 300; i++ {
		iA := 1 + rng.Float64()*40
		p := 4 * iA / (iA + 6)
		w := p * 1000
		d.Add(core.Sample{Metric: "a", T: 1000, W: w, M: w / iA})
		iB := 1 + rng.Float64()*20
		p2 := 3.0 / (1 + 0.1*iB)
		w2 := p2 * 1000
		d.Add(core.Sample{Metric: "b", T: 1000, W: w2, M: w2 / iB})
	}
	ens, err := core.Train(d, core.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ens
}

// testWorkload builds a deterministic mixed workload with window tags and
// some invalid/edge samples.
func testWorkload(seed int64, n int) core.Dataset {
	rng := rand.New(rand.NewSource(seed))
	var d core.Dataset
	for i := 0; i < n; i++ {
		w := 500 + rng.Float64()*1000
		d.Add(
			core.Sample{Metric: "a", T: 1000, W: w, M: w / (1 + rng.Float64()*30), Window: i / 3},
			core.Sample{Metric: "b", T: 1000, W: w, M: w / (1 + rng.Float64()*15), Window: i / 3},
		)
		if i%7 == 0 {
			d.Add(core.Sample{Metric: "a", T: 1000, W: w, M: 0, Window: i / 3}) // +Inf intensity
		}
		if i%11 == 0 {
			d.Add(core.Sample{Metric: "b", T: -1, W: w, M: 1}) // invalid, dropped by indexing
		}
	}
	return d
}

func TestEstimateMatchesCore(t *testing.T) {
	ens := testModel(t)
	d := testWorkload(1, 40)
	want, err := ens.Estimate(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(Options{}).Estimate(context.Background(), ens, d, core.EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("engine estimate diverges from core")
	}
}

func TestIndexCacheHitsAndReuse(t *testing.T) {
	d := testWorkload(2, 20)
	e := New(Options{})
	ix1, hit1 := e.Index(d.Samples)
	if hit1 {
		t.Fatal("first Index must miss")
	}
	ix2, hit2 := e.Index(d.Samples)
	if !hit2 {
		t.Fatal("second Index must hit")
	}
	if ix1 != ix2 {
		t.Fatal("cache hit must return the same index")
	}
	// A value-identical copy of the samples shares the key.
	cp := append([]core.Sample(nil), d.Samples...)
	if _, hit := e.Index(cp); !hit {
		t.Fatal("value-identical samples must share a cache key")
	}
	// Different samples miss.
	cp[0].W++
	if _, hit := e.Index(cp); hit {
		t.Fatal("different samples must not share a cache key")
	}
	if e.CacheLen() != 2 {
		t.Fatalf("CacheLen = %d, want 2", e.CacheLen())
	}
}

func TestCacheDisabled(t *testing.T) {
	e := New(Options{CacheEntries: -1})
	d := testWorkload(3, 5)
	e.Index(d.Samples)
	if _, hit := e.Index(d.Samples); hit {
		t.Fatal("disabled cache must never hit")
	}
	if e.CacheLen() != 0 {
		t.Fatalf("CacheLen = %d, want 0", e.CacheLen())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newIndexCache(2)
	ix := core.IndexWorkload(testWorkload(4, 3))
	c.put("k1", ix)
	c.put("k2", ix)
	if _, ok := c.get("k1"); !ok {
		t.Fatal("k1 should be cached")
	}
	c.put("k3", ix) // evicts k2 (k1 was refreshed by the get)
	if _, ok := c.get("k2"); ok {
		t.Fatal("k2 should have been evicted")
	}
	if _, ok := c.get("k1"); !ok {
		t.Fatal("k1 should have survived")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestWorkloadKeyFraming(t *testing.T) {
	// The length-framed encoding must distinguish metric-name boundaries.
	a := []core.Sample{{Metric: "ab", T: 1, W: 1, M: 1}}
	b := []core.Sample{{Metric: "a", T: 1, W: 1, M: 1}}
	if workloadKey(a) == workloadKey(b) {
		t.Fatal("different metric names must hash differently")
	}
	if workloadKey(a) != workloadKey(append([]core.Sample(nil), a...)) {
		t.Fatal("equal samples must hash identically")
	}
}

func TestEstimateCancellation(t *testing.T) {
	ens := testModel(t)
	d := testWorkload(5, 50)
	e := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Estimate(ctx, ens, d, core.EstimateOptions{}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEstimateNoSamples(t *testing.T) {
	ens := testModel(t)
	e := New(Options{})
	var empty core.Dataset
	if _, err := e.Estimate(context.Background(), ens, empty, core.EstimateOptions{}); err != core.ErrNoSamples {
		t.Fatalf("err = %v, want ErrNoSamples", err)
	}
	unmodeled := core.Dataset{Samples: []core.Sample{{Metric: "zzz", T: 1, W: 1, M: 1}}}
	if _, err := e.Estimate(context.Background(), ens, unmodeled, core.EstimateOptions{}); err != core.ErrNoSamples {
		t.Fatalf("err = %v, want ErrNoSamples", err)
	}
}

// TestConcurrentEstimates hammers one engine from many goroutines — the
// serve pattern — and checks every result is identical. Run with -race.
func TestConcurrentEstimates(t *testing.T) {
	ens := testModel(t)
	d := testWorkload(6, 30)
	e := New(Options{})
	want, err := e.Estimate(context.Background(), ens, d, core.EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantRaw, _ := json.Marshal(want)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := e.Estimate(context.Background(), ens, d, core.EstimateOptions{})
				if err != nil {
					errs <- err
					return
				}
				raw, _ := json.Marshal(got)
				if string(raw) != string(wantRaw) {
					errs <- errDiverged
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errDiverged = &divergeError{}

type divergeError struct{}

func (*divergeError) Error() string { return "concurrent estimate diverged" }

func TestEngineMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	e := New(Options{Metrics: reg})
	ens := testModel(t)
	d := testWorkload(7, 10)
	if _, err := e.Estimate(context.Background(), ens, d, core.EstimateOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Estimate(context.Background(), ens, d, core.EstimateOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("spire_engine_estimates_total", "").Value(); got != 2 {
		t.Fatalf("estimates counter = %g, want 2", got)
	}
	if got := reg.Counter("spire_estimate_cache_hits_total", "").Value(); got != 1 {
		t.Fatalf("cache hits = %g, want 1", got)
	}
	if got := reg.Counter("spire_estimate_cache_misses_total", "").Value(); got != 1 {
		t.Fatalf("cache misses = %g, want 1", got)
	}
	if got := reg.Counter("spire_engine_samples_total", "").Value(); got <= 0 {
		t.Fatalf("samples counter = %g, want > 0", got)
	}
}

func TestDefaultIsShared(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default must return one shared engine")
	}
}
