// Package stream turns SPIRE's batch estimation pipeline into an online
// one: it tails `perf stat -I`-style CSV from any reader, maintains a
// sliding window of recent intervals per metric via core.IncrementalIndex,
// and emits one bottleneck estimation per completed interval (paper §III
// treats counter collection as a continuous feed; Eq. 1's time-weighted
// mean is evaluated over only the in-window samples).
//
// Two consumption styles are provided. Pipeline is synchronous: the
// caller's reads are the flow control, nothing is ever dropped, and the
// emitted results are byte-stable — this backs `spire watch`. Hub is
// asynchronous: feeders enqueue intervals into a bounded queue and any
// number of subscribers receive results over bounded channels, with
// explicit drop-oldest backpressure on both sides — this backs the
// /v1/stream SSE endpoint. Memory is bounded everywhere: the sliding
// index evicts expired windows, queues are fixed-capacity, and drops are
// counted, never buffered.
package stream

import (
	"context"
	"errors"
	"time"

	"spire/internal/analysis"
	"spire/internal/core"
	"spire/internal/engine"
	"spire/internal/ingest"
	"spire/internal/metrics"
)

// Defaults for Config fields left zero.
const (
	DefaultWindowIntervals = 8
	DefaultMaxPending      = 64
	DefaultSubBuffer       = 16
)

// ModelProvider supplies the current ensemble and an identifier for it.
// It is called once per window, so an atomically hot-swapped model (e.g.
// the serve registry) takes effect on the next window after a swap. A nil
// ensemble means no model is loaded yet.
type ModelProvider func() (*core.Ensemble, string)

// StaticModel wraps one fixed ensemble as a ModelProvider.
func StaticModel(e *core.Ensemble, id string) ModelProvider {
	return func() (*core.Ensemble, string) { return e, id }
}

// Config parameterizes a Pipeline or Hub.
type Config struct {
	// WindowIntervals is the sliding-window span in intervals (default
	// DefaultWindowIntervals).
	WindowIntervals int
	// Top truncates each result's ranking to the N tightest bounds
	// (0 = keep all).
	Top int
	// MaxPending bounds the Hub's interval queue (default
	// DefaultMaxPending). Ignored by Pipeline.
	MaxPending int
	// SubBuffer bounds each Hub subscriber's channel (default
	// DefaultSubBuffer). Ignored by Pipeline.
	SubBuffer int
	// Ingest configures the tolerant CSV parser.
	Ingest ingest.Options
	// Model supplies the ensemble per window. Required.
	Model ModelProvider
	// Metrics receives stream instrumentation; nil means a private
	// throwaway registry.
	Metrics *metrics.Registry
	// Engine runs each window's estimation (shared index cache,
	// instrumentation). Nil selects the process-wide engine.Default().
	Engine *engine.Engine
}

func (cfg *Config) setDefaults() {
	if cfg.WindowIntervals <= 0 {
		cfg.WindowIntervals = DefaultWindowIntervals
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = DefaultMaxPending
	}
	if cfg.SubBuffer <= 0 {
		cfg.SubBuffer = DefaultSubBuffer
	}
	if cfg.Model == nil {
		cfg.Model = func() (*core.Ensemble, string) { return nil, "" }
	}
	if cfg.Engine == nil {
		cfg.Engine = engine.Default()
	}
}

// Result is one window's estimation, emitted once per completed interval.
// Seq increases by exactly 1 per window within a stream; subscribers that
// observe a gap lost the intervening windows to backpressure.
type Result struct {
	Seq       uint64  `json:"seq"`
	Model     string  `json:"model,omitempty"`
	StartTS   float64 `json:"startTs"`
	EndTS     float64 `json:"endTs"`
	Intervals int     `json:"intervals"`
	Samples   int     `json:"samples"`
	// Estimation is the windowed ranking (PerMetric ascending by bound —
	// the head is the inferred bottleneck). Nil when Error is set.
	Estimation *core.Estimation `json:"estimation,omitempty"`
	Error      string           `json:"error,omitempty"`
}

// Truncate returns a copy of r whose ranking keeps only the top-n
// tightest bounds (n <= 0 keeps all). The estimation is copied shallowly
// so the original remains intact for other consumers.
func (r Result) Truncate(n int) Result {
	if n <= 0 || r.Estimation == nil || len(r.Estimation.PerMetric) <= n {
		return r
	}
	est := *r.Estimation
	est.PerMetric = est.PerMetric[:n:n]
	r.Estimation = &est
	return r
}

// Estimator evaluates windows against the provider's current model,
// running each window's Eq. 1 evaluation on the shared estimation engine.
type Estimator struct {
	model ModelProvider
	eng   *engine.Engine
	top   int
	inst  *Instruments
}

// NewEstimator builds an estimator from cfg (which must have defaults
// applied) and the stream instruments.
func NewEstimator(cfg Config, inst *Instruments) *Estimator {
	cfg.setDefaults()
	return &Estimator{model: cfg.Model, eng: cfg.Engine, top: cfg.Top, inst: inst}
}

// Estimate produces the Result for one window. Estimation failures are
// reported in-band (Result.Error) so a stream survives model gaps and
// windows with no modeled samples; only ctx cancellation is terminal for
// the caller's loop and still yields a filled-in Result.
func (e *Estimator) Estimate(ctx context.Context, win Window) Result {
	res := Result{
		Seq:       win.Seq,
		StartTS:   win.StartTS,
		EndTS:     win.EndTS,
		Intervals: win.Intervals,
		Samples:   win.Samples,
	}
	ens, id := e.model()
	if ens == nil {
		res.Error = "no model loaded"
		e.inst.window()
		return res
	}
	res.Model = id
	start := time.Now()
	est, err := e.eng.EstimateIndexed(ctx, ens, win.Index, core.EstimateOptions{})
	e.inst.estimated(time.Since(start))
	switch {
	case errors.Is(err, core.ErrNoSamples):
		res.Error = "no sample matches a modeled metric"
	case err != nil:
		res.Error = err.Error()
	default:
		if e.top > 0 && len(est.PerMetric) > e.top {
			est.PerMetric = est.PerMetric[:e.top:e.top]
		}
		// Combined on/off-CPU report for windows whose intervals carried
		// scheduler events; mirrors the /v1/estimate contract (combined
		// rides on a successful estimation, zero-sched windows are
		// untouched).
		if len(win.Sched) > 0 {
			if combined, cerr := analysis.Combine(est, win.Sched); cerr == nil {
				est.Combined = combined
			}
		}
		res.Estimation = est
	}
	e.inst.window()
	return res
}
