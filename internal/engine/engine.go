// Package engine is SPIRE's unified estimation engine: the one place
// every frontend — the CLI (analyze, diff, watch), the HTTP service, the
// streaming pipeline, the experiment harness, the examples — runs the
// paper's ensemble estimation (§III-C, Eq. 1 + Fig. 4) through.
//
// The Engine owns the machinery that used to be duplicated or rebuilt per
// call across those frontends:
//
//   - workload indexing, memoized in a content-hash-keyed LRU (the serve
//     tier's cache, promoted here so every consumer benefits);
//   - the precompiled per-roofline segment tables (core's chainEval,
//     built once per ensemble and shared);
//   - scratch-buffer reuse for the per-metric partial sums (core's
//     sync.Pool scratch, driven hardest by this hot path);
//   - optional internal/metrics instrumentation: estimates served,
//     estimation latency, samples evaluated, index-cache hits/misses.
//
// Estimation runs serially on the caller's goroutine: an Engine starts no
// goroutines of its own, so dropping one leaks nothing. Results are
// byte-identical to core's historical serial Estimate for every cache
// state; the differential suite in this package pins that equivalence
// against the pre-refactor implementation.
package engine

import (
	"context"
	"sync"
	"time"

	"spire/internal/core"
	"spire/internal/lru"
	"spire/internal/metrics"
)

// DefaultCacheEntries is the index-LRU capacity when Options.CacheEntries
// is zero.
const DefaultCacheEntries = 128

// Options configures an Engine. The zero value is production-safe.
type Options struct {
	// CacheEntries bounds the workload-index LRU. Zero selects
	// DefaultCacheEntries; negative disables caching.
	CacheEntries int
	// Metrics, when non-nil, receives the engine's counters and
	// histograms. Nil keeps instrumentation on a private registry.
	Metrics *metrics.Registry
}

// Engine evaluates workloads against trained ensembles. It is safe for
// concurrent use by any number of goroutines; construct one per process
// (or use Default) so the cache is actually shared.
type Engine struct {
	// cache holds pre-indexed workloads keyed by the content hash of
	// their sample set. Estimations that resend the same workload
	// (dashboards polling a service, diff loops, per-window timeline
	// passes, retries) skip the group-and-derive indexing pass entirely;
	// a cached *core.WorkloadIndex is immutable and shared by concurrent
	// readers. The key is independent of any model, so cached indexes
	// survive model hot-swaps.
	cache *lru.Cache[string, *core.WorkloadIndex]

	mEstimates   *metrics.Counter
	mSamples     *metrics.Counter
	mCacheHits   *metrics.Counter
	mCacheMisses *metrics.Counter
	mLatency     *metrics.Histogram
}

// New builds an Engine from opts.
func New(opts Options) *Engine {
	if opts.CacheEntries == 0 {
		opts.CacheEntries = DefaultCacheEntries
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Engine{
		cache: lru.New[string, *core.WorkloadIndex](opts.CacheEntries),

		mEstimates:   reg.Counter("spire_engine_estimates_total", "Estimations completed by the engine."),
		mSamples:     reg.Counter("spire_engine_samples_total", "Indexed samples evaluated by completed estimations."),
		mCacheHits:   reg.Counter("spire_estimate_cache_hits_total", "Workload-index cache hits."),
		mCacheMisses: reg.Counter("spire_estimate_cache_misses_total", "Workload-index cache misses."),
		mLatency:     reg.Histogram("spire_engine_estimate_seconds", "Estimation latency.", nil),
	}
}

var (
	defaultOnce   sync.Once
	defaultEngine *Engine
)

// Default returns the process-wide shared engine, building it on first
// use with default options. CLI commands, examples and library code that
// have no reason to own a cache should all share this one.
func Default() *Engine {
	defaultOnce.Do(func() { defaultEngine = New(Options{}) })
	return defaultEngine
}

// Index returns the immutable pre-built index for samples, serving
// repeats from the content-hash LRU. The second result reports whether
// the lookup hit.
func (e *Engine) Index(samples []core.Sample) (*core.WorkloadIndex, bool) {
	return e.IndexKeyed(workloadKey(samples), samples)
}

// IndexKeyed is Index for a caller holding the samples' WorkloadKey, so
// a request that needs the key elsewhere hashes its workload once.
func (e *Engine) IndexKeyed(key string, samples []core.Sample) (*core.WorkloadIndex, bool) {
	ix, hit := e.cache.Get(key)
	if hit {
		e.mCacheHits.Inc()
		return ix, true
	}
	e.mCacheMisses.Inc()
	ix = core.IndexWorkload(core.Dataset{Samples: samples})
	e.cache.Put(key, ix)
	return ix, false
}

// Estimate runs the Eq. 1 estimation of workload against ens: index
// (cache-memoized), evaluate every shared metric on the caller's
// goroutine, merge deterministically. Identical inputs produce identical
// outputs for any cache state. opts has no effect.
func (e *Engine) Estimate(ctx context.Context, ens *core.Ensemble, workload core.Dataset, opts core.EstimateOptions) (*core.Estimation, error) {
	ix, _ := e.Index(workload.Samples)
	return e.EstimateIndexed(ctx, ens, ix, opts)
}

// EstimateIndexed is Estimate for callers that already hold an index —
// the serve handler (which needs the cache-hit flag for its response
// headers) and the streaming tier (whose sliding-window snapshots come
// from the same core.IncrementalIndex builder as Index's batch indexes).
func (e *Engine) EstimateIndexed(ctx context.Context, ens *core.Ensemble, ix *core.WorkloadIndex, opts core.EstimateOptions) (*core.Estimation, error) {
	start := time.Now()
	est, err := ens.BatchEstimate(ctx, ix, opts)
	e.mLatency.Observe(time.Since(start).Seconds())
	if err == nil {
		e.mEstimates.Inc()
		e.mSamples.Add(float64(ix.Len()))
	}
	return est, err
}

// CacheLen reports how many workload indexes are currently cached.
func (e *Engine) CacheLen() int { return e.cache.Len() }

// WorkloadKey is the engine's content hash of a sample set — the same
// key the index LRU uses. The serving tier keys its degraded-mode
// response cache on it (plus the model ID) so "same workload" means
// exactly what it means here: identical field values, any provenance.
func WorkloadKey(samples []core.Sample) string { return workloadKey(samples) }
