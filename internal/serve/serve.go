// Package serve is SPIRE's long-running estimation service: the trained
// ensemble behind an HTTP JSON API. It wires the hardened ingestion
// pipeline (internal/ingest) and the batch estimator
// (core.IndexWorkload / BatchEstimateInto) behind a versioned, atomically
// hot-swappable model registry, a bounded LRU of content-addressed
// workload indexes, and built-in Prometheus-format observability
// (internal/metrics). Every handler enforces a max body size and the
// estimation path runs under a per-request timeout, so one hostile or
// huge request cannot starve the service.
//
// Endpoints:
//
//	POST /v1/estimate  workload samples in -> per-metric estimates + ranking out
//	POST /v1/ingest    raw perf-stat CSV / simulator JSON in -> clean samples out
//	POST /v1/stream    feed interval CSV into the live sliding-window stream
//	GET  /v1/stream    Server-Sent Events: one windowed estimation per interval
//	GET  /v1/models    current model version + swap history
//	POST /v1/models    upload, validate and atomically install a model
//	GET  /healthz      liveness + readiness (is a model loaded?)
//	GET  /readyz       load-balancer readiness; flips 503 when draining
//	GET  /metrics      Prometheus text exposition
//	GET  /debug/pprof  optional, Config.EnablePprof
//
// Estimate bodies and stream feeds may use the SPB1 binary wire format
// instead of JSON/CSV: Content-Type application/x-spire-bin selects
// binary request decoding, Accept selects binary estimate responses.
// Binary is strictly opt-in per message and error responses stay JSON.
// The estimate schema and that negotiation live in internal/wire.
//
// Overload safety: the estimation path sits behind internal/admission —
// a bounded-concurrency gate with a short deadline-aware wait queue,
// plus optional per-tenant token-bucket quotas (tenant taken from the
// X-Spire-Tenant header, "default" otherwise). Shed requests get 429
// with a Retry-After header, never an unbounded queue; when the gate is
// saturated, a workload whose exact response is in the degraded-mode
// cache is still served (byte-identical, X-Spire-Degraded: cache)
// without touching the estimation path.
//
// The stream endpoints share one hub: every feeder's intervals advance
// the same sliding window, each completed interval is re-estimated
// against the registry's current model (a hot-swap takes effect on the
// next window), and all SSE subscribers observe the same monotone window
// sequence. Backpressure is drop-oldest with counters on both the
// pending-interval queue and each subscriber's buffer (see
// internal/stream).
package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"spire/internal/admission"
	"spire/internal/analysis"
	"spire/internal/buildinfo"
	"spire/internal/core"
	"spire/internal/engine"
	"spire/internal/ingest"
	"spire/internal/lru"
	"spire/internal/metrics"
	"spire/internal/stream"
	"spire/internal/wire"
)

// Config tunes the service. The zero value is production-safe: defaults
// are applied by New.
type Config struct {
	// MaxBodyBytes caps every request body. Default 8 MiB.
	MaxBodyBytes int64
	// RequestTimeout bounds the estimation path per request. Default 30s.
	RequestTimeout time.Duration
	// CacheEntries bounds the workload-index LRU. Default 128; negative
	// disables caching.
	CacheEntries int
	// ModelDir, when set, persists accepted model uploads as <id>.json
	// and lets the registry resume the latest one at startup.
	ModelDir string
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// StreamWindow is the /v1/stream sliding-window span in intervals.
	// Default stream.DefaultWindowIntervals.
	StreamWindow int
	// StreamMaxPending bounds the stream's pending-interval queue; the
	// oldest pending interval is shed (and counted) when it overflows.
	// Default stream.DefaultMaxPending.
	StreamMaxPending int
	// StreamSubBuffer bounds each SSE subscriber's undelivered results;
	// the oldest is shed (and counted) when it overflows. Default
	// stream.DefaultSubBuffer.
	StreamSubBuffer int

	// MaxConcurrent caps concurrently running estimations (the
	// admission gate). 0 selects the admission default (4×GOMAXPROCS);
	// negative disables the gate.
	MaxConcurrent int
	// AdmissionQueue bounds requests waiting for an estimation slot.
	// 0 selects 8×MaxConcurrent; negative means no waiting room.
	AdmissionQueue int
	// QueueWait caps one request's time in the admission queue.
	// Default 1s.
	QueueWait time.Duration
	// TenantRate enables per-tenant token-bucket quotas at this many
	// requests/second (tenant = X-Spire-Tenant header, "default"
	// otherwise). 0 disables quotas.
	TenantRate float64
	// TenantBurst is the per-tenant burst capacity. 0 selects
	// max(1, 2×TenantRate).
	TenantBurst float64
	// DegradedCache bounds the saturated-mode response cache (exact
	// recent /v1/estimate bodies served when admission sheds a
	// request). Default 64; negative disables the fast path.
	DegradedCache int

	// IdleTimeout closes idle keep-alive connections. Default 120s;
	// negative disables.
	IdleTimeout time.Duration
	// WriteTimeout bounds writing any one response. The SSE stream
	// route exempts itself per-request via http.ResponseController.
	// Default RequestTimeout + 30s; negative disables.
	WriteTimeout time.Duration
}

func (c *Config) setDefaults() {
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	if c.DegradedCache == 0 {
		c.DegradedCache = 64
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 120 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = c.RequestTimeout + 30*time.Second
	}
}

// Server is the SPIRE estimation service.
type Server struct {
	cfg      Config
	models   *Registry
	engine   *engine.Engine
	metrics  *metrics.Registry
	handler  http.Handler
	hub      *stream.Hub
	adm      *admission.Controller
	resp     *lru.Cache[string, []byte] // degraded-mode responses by respKey
	draining atomic.Bool

	mEstimates   *metrics.Counter
	mQuarantined *metrics.Counter
	mIngested    *metrics.Counter
	mSwaps       *metrics.Counter
	mModelSize   *metrics.Gauge
	mInflight    *metrics.Gauge
	mDegraded    *metrics.Counter
}

// New builds a server from cfg.
func New(cfg Config) *Server {
	cfg.setDefaults()
	reg := metrics.NewRegistry()
	s := &Server{
		cfg:    cfg,
		models: NewRegistry(cfg.ModelDir),
		// One estimation engine backs both /v1/estimate and the stream
		// re-estimation path: shared workload-index cache, and its
		// hit/miss counters land on this registry (and so on /metrics).
		engine:  engine.New(engine.Options{CacheEntries: cfg.CacheEntries, Metrics: reg}),
		metrics: reg,

		mEstimates:   reg.Counter("spire_estimates_served_total", "Estimations successfully served."),
		mQuarantined: reg.Counter("spire_quarantined_samples_total", "Samples dropped by validation across ingest and estimate requests."),
		mIngested:    reg.Counter("spire_ingested_samples_total", "Clean samples produced by /v1/ingest."),
		mSwaps:       reg.Counter("spire_model_swaps_total", "Successful model installs/hot-swaps."),
		mModelSize:   reg.Gauge("spire_model_metrics", "Rooflines in the currently served model."),
		mInflight:    reg.Gauge("spire_http_inflight_requests", "Requests currently being handled."),
		mDegraded:    reg.Counter("spire_estimates_degraded_total", "Estimations served from the degraded-mode response cache while the gate was saturated."),
	}
	s.adm = admission.New(admission.Config{
		MaxConcurrent: cfg.MaxConcurrent,
		MaxQueue:      cfg.AdmissionQueue,
		QueueWait:     cfg.QueueWait,
		TenantRate:    cfg.TenantRate,
		TenantBurst:   cfg.TenantBurst,
		Metrics:       reg,
	})
	s.resp = lru.New[string, []byte](cfg.DegradedCache)
	s.models.onSwap = func(info ModelInfo) {
		s.mSwaps.Inc()
		s.mModelSize.Set(float64(info.Metrics))
	}
	s.hub = stream.NewHub(stream.Config{
		WindowIntervals: cfg.StreamWindow,
		MaxPending:      cfg.StreamMaxPending,
		SubBuffer:       cfg.StreamSubBuffer,
		Model: func() (*core.Ensemble, string) {
			ens, info := s.models.Current()
			if info == nil {
				return nil, ""
			}
			return ens, info.ID
		},
		Metrics: reg,
		Engine:  s.engine,
	})

	mux := http.NewServeMux()
	mux.Handle("POST /v1/estimate", s.instrument("/v1/estimate", s.handleEstimate))
	mux.Handle("POST /v1/ingest", s.instrument("/v1/ingest", s.handleIngest))
	mux.Handle("POST /v1/stream", s.instrumentBody("/v1/stream", s.handleStreamPost, false))
	mux.Handle("GET /v1/stream", s.instrument("/v1/stream", s.handleStreamGet))
	mux.Handle("GET /v1/models", s.instrument("/v1/models", s.handleModelsGet))
	mux.Handle("POST /v1/models", s.instrument("/v1/models", s.handleModelsPost))
	mux.Handle("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.Handle("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	mux.Handle("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	if cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.handler = mux
	return s
}

// Models exposes the model registry (initial load, tests).
func (s *Server) Models() *Registry { return s.models }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Close stops the stream hub, detaching any connected SSE clients. Serve
// does this as part of its drain; call Close directly when the handler
// is mounted some other way (e.g. httptest).
func (s *Server) Close() { s.hub.Close() }

// statusWriter captures the response code for instrumentation.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so instrumented handlers can
// stream (SSE requires per-event flushing).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer to http.ResponseController, so
// handlers can reach through the instrumentation to per-request
// controls (the SSE route clears the server-wide write deadline).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps a handler with the request counter, latency histogram,
// in-flight gauge and the body-size cap.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return s.instrumentBody(route, h, true)
}

// instrumentBody is instrument with the body cap optional. Routes that
// consume their body incrementally with bounded memory (POST /v1/stream:
// chunked reads into a drop-oldest queue) pass capBody=false so a feeder
// really can stream an endless body.
func (s *Server) instrumentBody(route string, h http.HandlerFunc, capBody bool) http.Handler {
	hist := s.metrics.Histogram("spire_http_request_seconds", "Request latency by route.",
		nil, metrics.L("route", route))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mInflight.Add(1)
		defer s.mInflight.Add(-1)
		if capBody && r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r)
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		hist.Observe(time.Since(start).Seconds())
		s.metrics.Counter("spire_http_requests_total", "Requests by route and status code.",
			metrics.L("route", route), metrics.L("code", strconv.Itoa(sw.code))).Inc()
	})
}

// errorBody is the uniform error response shape.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		raw = []byte(`{"error":"response encoding failed"}`)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(raw, '\n'))
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// writeRaw writes an already-encoded body (the degraded fast path and
// the cached-response producer share exact bytes) under the negotiated
// content type.
func writeRaw(w http.ResponseWriter, code int, raw []byte, contentType string) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(code)
	w.Write(raw)
}

// writeIfTooBig maps the body-cap error to the uniform 413 response.
// Every route funnels its MaxBytesReader failure through here, so the
// admission layer has a single body-limit choke point. Reports whether
// err was the cap.
func writeIfTooBig(w http.ResponseWriter, err error) bool {
	var tooBig *http.MaxBytesError
	if !errors.As(err, &tooBig) {
		return false
	}
	writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
	return true
}

// defaultTenant is the quota bucket for requests without an explicit
// X-Spire-Tenant header.
const defaultTenant = "default"

// tenantOf extracts the quota tenant from a request.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Spire-Tenant"); t != "" {
		return t
	}
	return defaultTenant
}

// writeRejected answers one admission-shed request: 429 plus the
// Retry-After the client contract (internal/client) honors.
func writeRejected(w http.ResponseWriter, err error) {
	var re *admission.RejectError
	if !errors.As(err, &re) {
		writeErr(w, http.StatusInternalServerError, "admission: %v", err)
		return
	}
	w.Header().Set("Retry-After", strconv.Itoa(int(re.RetryAfter/time.Second)))
	writeErr(w, http.StatusTooManyRequests, "overloaded: %v", re)
}

// EstimateRequest is the /v1/estimate request body (wire owns it).
type EstimateRequest = wire.EstimateRequest

// EstimateResponse is the /v1/estimate response body (wire owns it).
type EstimateResponse = wire.EstimateResponse

// respKey keys the degraded-mode response cache (Server.resp), which
// holds recent marshaled /v1/estimate bodies for the saturated fast
// path: when admission sheds a request, a workload whose exact response
// was computed recently under the current model is still served,
// byte-identical (estimation is deterministic), without touching the
// estimation path. Same model, same workload content hash, same
// truncation, same response content type, same scheduler events ->
// byte-identical response, so a hot-swap invalidates everything and
// stale entries age out. schedKey is "" for requests without scheduler
// events.
func respKey(modelID, workloadKey string, top int, contentType, schedKey string) string {
	k := modelID + "\x00" + workloadKey + "\x00" + strconv.Itoa(top) + "\x00" + contentType
	if schedKey != "" {
		k += "\x00" + schedKey
	}
	return k
}

// schedKey content-hashes a scheduler-event list for response-cache
// keying. Empty input returns "".
func schedKey(events []core.SchedEvent) string {
	if len(events) == 0 {
		return ""
	}
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, ev := range events {
		u64(math.Float64bits(ev.Time))
		io.WriteString(h, ev.Class)
		h.Write([]byte{0})
		u64(uint64(int64(ev.Thread)))
		u64(uint64(int64(ev.Hart)))
		io.WriteString(h, ev.Obj)
		h.Write([]byte{0})
		u64(uint64(int64(ev.Waker)))
		u64(uint64(int64(ev.Window)))
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	ens, info := s.models.Current()
	if ens == nil {
		writeErr(w, http.StatusServiceUnavailable, "no model loaded; POST one to /v1/models")
		return
	}
	// Admission runs before the body is even read: quota (rate policy,
	// header-only) first, then the concurrency gate. A shed request may
	// still be served from the degraded-mode cache — but never burns
	// estimation compute.
	if err := s.adm.Quota(tenantOf(r)); err != nil {
		writeRejected(w, err)
		return
	}
	release, aerr := s.adm.Acquire(r.Context())
	if aerr != nil {
		s.degradeOrReject(w, r, info.ID, aerr)
		return
	}
	defer release()

	req, derr := wire.ReadEstimateRequest(r.Body, r.Header.Get("Content-Type"))
	if derr != nil {
		if !writeIfTooBig(w, derr) {
			writeErr(w, http.StatusBadRequest, "malformed request body: %v", derr)
		}
		return
	}
	if len(req.Samples) == 0 {
		writeErr(w, http.StatusUnprocessableEntity, "no samples in request")
		return
	}

	key := engine.WorkloadKey(req.Samples) // keys the index LRU and the response cache
	ix, hit := s.engine.IndexKeyed(key, req.Samples)
	if dropped := len(req.Samples) - ix.Len(); dropped > 0 {
		s.mQuarantined.Add(float64(dropped))
	}
	w.Header().Set("X-Spire-Cache", cacheStatus(hit))
	w.Header().Set("X-Spire-Model", info.ID)

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	est, err := s.engine.EstimateIndexed(ctx, ens, ix, core.EstimateOptions{})
	switch {
	case err == nil:
	case errors.Is(err, core.ErrNoSamples):
		writeErr(w, http.StatusUnprocessableEntity,
			"no sample matches a modeled metric (model has %d metrics)", info.Metrics)
		return
	case errors.Is(err, context.DeadlineExceeded):
		writeErr(w, http.StatusServiceUnavailable, "estimation timed out after %s", s.cfg.RequestTimeout)
		return
	case errors.Is(err, context.Canceled):
		writeErr(w, http.StatusServiceUnavailable, "request canceled")
		return
	default:
		writeErr(w, http.StatusInternalServerError, "estimation failed: %v", err)
		return
	}
	if req.Top > 0 && req.Top < len(est.PerMetric) {
		est.PerMetric = est.PerMetric[:req.Top]
	}
	// Combined on/off-CPU report: strictly additive — requests without
	// scheduler events get exactly the estimation they always did.
	if len(req.Sched) > 0 {
		combined, cerr := analysis.Combine(est, req.Sched)
		if cerr != nil {
			writeErr(w, http.StatusUnprocessableEntity, "sched events: %v", cerr)
			return
		}
		est.Combined = combined
	}
	raw, ct, err := wire.EncodeEstimateResponse(&EstimateResponse{Model: info.ID, Estimation: est}, r.Header.Get("Accept"))
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "response encoding failed")
		return
	}
	// Remember the exact bytes for the saturated fast path.
	s.resp.Put(respKey(info.ID, key, req.Top, ct, schedKey(req.Sched)), raw)
	s.mEstimates.Inc()
	if h := est.Hierarchy; h != nil {
		// Lazily registered so flat deployments expose exactly the
		// pre-hierarchy /metrics page.
		s.metrics.Counter("spire_hierarchy_binding_level_total",
			"Estimations whose hierarchical verdict named this binding level.",
			metrics.L("level", h.BindingLevel)).Inc()
	}
	writeRaw(w, http.StatusOK, raw, ct)
}

// degradeOrReject answers a request the gate shed: a workload whose
// exact response was recently computed under the current model is served
// from cache (byte-identical, marked X-Spire-Degraded), anything else is
// a 429 with Retry-After.
func (s *Server) degradeOrReject(w http.ResponseWriter, r *http.Request, modelID string, aerr error) {
	if req, err := wire.ReadEstimateRequest(r.Body, r.Header.Get("Content-Type")); err == nil && len(req.Samples) > 0 {
		ct := wire.ResponseType(r.Header.Get("Accept"))
		if raw, ok := s.resp.Get(respKey(modelID, engine.WorkloadKey(req.Samples), req.Top, ct, schedKey(req.Sched))); ok {
			w.Header().Set("X-Spire-Model", modelID)
			w.Header().Set("X-Spire-Degraded", "cache")
			s.mDegraded.Inc()
			writeRaw(w, http.StatusOK, raw, ct)
			return
		}
	}
	writeRejected(w, aerr)
}

func cacheStatus(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// IngestResponse is the /v1/ingest response body. Samples is directly
// reusable as the "samples" field of an /v1/estimate request.
type IngestResponse struct {
	Samples     []core.Sample `json:"samples"`
	Stats       ingest.Stats  `json:"stats"`
	Quarantined int           `json:"quarantined"`
	Diags       []ingest.Diag `json:"diags,omitempty"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	opts := ingest.Options{Mode: ingest.Lenient}
	q := r.URL.Query()
	if mode := q.Get("mode"); mode != "" {
		switch mode {
		case "lenient":
		case "strict":
			opts.Mode = ingest.Strict
		default:
			writeErr(w, http.StatusBadRequest, "unknown mode %q (want lenient or strict)", mode)
			return
		}
	}
	if pct := q.Get("min_run_pct"); pct != "" {
		v, err := strconv.ParseFloat(pct, 64)
		if err != nil || v < 0 || v > 100 {
			writeErr(w, http.StatusBadRequest, "bad min_run_pct %q", pct)
			return
		}
		opts.MinRunPct = v
	}
	res, err := ingest.Read(r.Body, opts)
	if res != nil {
		s.mQuarantined.Add(float64(res.Validation.Quarantined))
	}
	if err != nil {
		if writeIfTooBig(w, err) {
			return
		}
		writeErr(w, http.StatusUnprocessableEntity, "ingest failed: %v", err)
		return
	}
	s.mIngested.Add(float64(res.Dataset.Len()))
	writeJSON(w, http.StatusOK, IngestResponse{
		Samples:     res.Dataset.Samples,
		Stats:       res.Stats,
		Quarantined: res.Validation.Quarantined,
		Diags:       res.Diags,
	})
}

// ModelsResponse is the GET /v1/models response body.
type ModelsResponse struct {
	Current *ModelInfo  `json:"current,omitempty"`
	History []ModelInfo `json:"history,omitempty"`
}

func (s *Server) handleModelsGet(w http.ResponseWriter, r *http.Request) {
	_, info := s.models.Current()
	writeJSON(w, http.StatusOK, ModelsResponse{Current: info, History: s.models.History()})
}

func (s *Server) handleModelsPost(w http.ResponseWriter, r *http.Request) {
	info, err := s.models.Load(r.Body, "upload")
	if err != nil {
		var rejected *modelRejectedError
		switch {
		case writeIfTooBig(w, err):
		case errors.As(err, &rejected):
			writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		default:
			// Installed but e.g. not persisted: the swap happened.
			writeErr(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// HealthResponse is the GET /healthz response body.
type HealthResponse struct {
	Status string `json:"status"`
	// Ready reports whether a model is loaded and estimations can be
	// served.
	Ready bool `json:"ready"`
	// Model is the served model ID, when ready.
	Model string `json:"model,omitempty"`
	// Version is the spire release version the process was built from.
	Version string `json:"version"`
	// Revision is the VCS revision, when the build was stamped.
	Revision string `json:"revision,omitempty"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"goVersion"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := HealthResponse{
		Status:    "ok",
		Version:   buildinfo.Version,
		Revision:  buildinfo.Revision(),
		GoVersion: buildinfo.GoVersion(),
	}
	if _, info := s.models.Current(); info != nil {
		h.Ready = true
		h.Model = info.ID
	}
	writeJSON(w, http.StatusOK, h)
}

// ReadyResponse is the GET /readyz response body.
type ReadyResponse struct {
	Ready bool `json:"ready"`
	// Reason explains a not-ready answer ("draining", "no model").
	Reason string `json:"reason,omitempty"`
	// Model is the served model ID, when ready.
	Model string `json:"model,omitempty"`
}

// handleReadyz is the load-balancer contract: 200 while this instance
// should receive traffic, 503 the moment a drain begins — before the
// listener stops accepting — or while no model is loaded. /healthz stays
// 200 throughout a drain (the process is alive and finishing work).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ReadyResponse{Reason: "draining"})
		return
	}
	_, info := s.models.Current()
	if info == nil {
		writeJSON(w, http.StatusServiceUnavailable, ReadyResponse{Reason: "no model"})
		return
	}
	writeJSON(w, http.StatusOK, ReadyResponse{Ready: true, Model: info.ID})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.Render(w)
}

// Serve runs the service on ln until ctx is canceled, then drains
// in-flight requests for up to drain before returning. A clean drain
// returns nil.
func (s *Server) Serve(ctx context.Context, ln net.Listener, drain time.Duration) error {
	idle, write := s.cfg.IdleTimeout, s.cfg.WriteTimeout
	if idle < 0 {
		idle = 0
	}
	if write < 0 {
		write = 0
	}
	hs := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
		// IdleTimeout reclaims abandoned keep-alive connections;
		// WriteTimeout bounds every response write so a stalled reader
		// cannot pin a handler forever. The SSE stream route clears its
		// own write deadline per-request (http.ResponseController) so
		// long-lived feeds survive.
		IdleTimeout:  idle,
		WriteTimeout: write,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		s.hub.Close()
		return err
	case <-ctx.Done():
	}
	// Flip /readyz first, before the listener stops accepting, so load
	// balancers stop routing new work here while in-flight requests
	// still complete.
	s.draining.Store(true)
	// Detach SSE clients next: Shutdown waits for in-flight handlers,
	// and stream handlers only return once the hub releases them.
	s.hub.Close()
	if drain <= 0 {
		drain = 10 * time.Second
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
