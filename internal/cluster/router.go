package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spire/internal/buildinfo"
	"spire/internal/client"
	"spire/internal/core"
	"spire/internal/engine"
	"spire/internal/metrics"
	"spire/internal/wire"
)

// shard is one backend's runtime state.
type shard struct {
	name string
	url  string

	// cl is the relay client: transport-level retries only, every
	// received response definitive (DoRaw) so shard 429s and 4xxs relay
	// byte-for-byte.
	cl *client.Client
	// proxy streams /v1/stream exchanges (SSE and chunked feeds) that
	// DoRaw's buffer-whole-body model cannot carry.
	proxy *httputil.ReverseProxy

	healthy  atomic.Bool
	inflight atomic.Int64
	// modelID is the fingerprint this shard last reported/accepted;
	// the sync loop pushes when it diverges from the router's.
	modelID atomic.Value // string
}

// Router consistent-hashes requests across shards. Stateless: safe to
// run N routers over the same shard set.
type Router struct {
	cfg    Config
	ring   *ring
	shards []*shard

	// model is the router's replicated-model source of truth: canonical
	// bytes plus fingerprint, pushed to any shard that diverges.
	modelMu    sync.RWMutex
	modelBytes []byte
	modelID    string

	reg        *metrics.Registry
	mRequests  map[string]*metrics.Counter // route → requests
	mRelayed   map[string]*metrics.Counter // route|path → definitive relays
	mRejected  map[string]*metrics.Counter // route|reason → router-generated rejections
	mFailovers *metrics.Counter
	mPushes    *metrics.Counter
	mHealthy   []*metrics.Gauge // per shard
	mInflight  *metrics.Gauge
	mStreams   *metrics.Counter

	handler   http.Handler
	draining  atomic.Bool
	closeOnce sync.Once
	closed    chan struct{}
	loops     sync.WaitGroup
}

// RouterOptions carries test seams that are not config-file material.
type RouterOptions struct {
	// Transport, when set, underlies every router→shard HTTP exchange
	// (relay clients, health probes, model pushes, stream proxies). The
	// chaos harness injects faults on the router↔shard hop here.
	Transport http.RoundTripper
}

// routes instrumented for the books-balance identity: per route,
// requests == relayed{primary} + relayed{failover} + Σ rejected{reason}.
var bookRoutes = []string{"/v1/estimate", "/v1/ingest"}

// rejection reasons the router itself can produce.
var rejectReasons = []string{"no_shard", "body_too_large", "malformed_body", "draining"}

// NewRouter validates cfg and builds the router. Start health/sync
// loops with Run (Serve does both).
func NewRouter(cfg Config, opts RouterOptions) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	names := make([]string, len(cfg.Shards))
	for i, sh := range cfg.Shards {
		names[i] = sh.Name
	}
	reg := metrics.NewRegistry()
	rt := &Router{
		cfg:        cfg,
		ring:       buildRing(names, cfg.VNodes),
		reg:        reg,
		mRequests:  map[string]*metrics.Counter{},
		mRelayed:   map[string]*metrics.Counter{},
		mRejected:  map[string]*metrics.Counter{},
		mFailovers: reg.Counter("spire_route_failovers_total", "Estimate/ingest requests answered by a non-home shard after the home shard failed."),
		mPushes:    reg.Counter("spire_route_model_pushes_total", "Model blobs pushed to shards by the convergence loop or POST /v1/models."),
		mInflight:  reg.Gauge("spire_route_inflight_requests", "Router→shard exchanges currently in flight."),
		mStreams:   reg.Counter("spire_route_stream_proxied_total", "Stream exchanges (feeds and SSE subscriptions) proxied to a shard."),
		closed:     make(chan struct{}),
	}
	for _, route := range bookRoutes {
		rt.mRequests[route] = reg.Counter("spire_route_requests_total",
			"Requests accepted for routing.", metrics.L("route", route))
		for _, path := range []string{"primary", "failover"} {
			rt.mRelayed[route+"|"+path] = reg.Counter("spire_route_relayed_total",
				"Definitive shard responses relayed to clients.",
				metrics.L("route", route), metrics.L("path", path))
		}
		for _, reason := range rejectReasons {
			rt.mRejected[route+"|"+reason] = reg.Counter("spire_route_rejected_total",
				"Requests the router itself rejected.",
				metrics.L("route", route), metrics.L("reason", reason))
		}
	}

	hc := &http.Client{Timeout: time.Duration(cfg.ShardTimeout), Transport: opts.Transport}
	for i, sc := range cfg.Shards {
		cl, err := client.New(client.Config{
			BaseURL:     sc.URL,
			HTTPClient:  hc,
			MaxAttempts: cfg.ShardAttempts,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    200 * time.Millisecond,
			Seed:        int64(i + 1),
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %q: %w", sc.Name, err)
		}
		target, _ := url.Parse(sc.URL) // validated above
		proxy := &httputil.ReverseProxy{
			Rewrite: func(pr *httputil.ProxyRequest) {
				pr.SetURL(target)
				pr.Out.Host = target.Host
			},
			// SSE frames must flush as they arrive, not on buffer fill.
			FlushInterval: -1,
			ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
				writeError(w, http.StatusBadGateway, "shard %s unreachable: %v", sc.Name, err)
			},
		}
		if opts.Transport != nil {
			proxy.Transport = opts.Transport
		}
		sh := &shard{name: sc.Name, url: sc.URL, cl: cl, proxy: proxy}
		sh.modelID.Store("")
		// Optimistic start: shards are assumed healthy until the first
		// probe or a transport failure says otherwise, so a router can
		// serve immediately after boot.
		sh.healthy.Store(true)
		rt.shards = append(rt.shards, sh)
		rt.mHealthy = append(rt.mHealthy, reg.Gauge("spire_route_shard_healthy",
			"1 when the shard's last /readyz probe succeeded.", metrics.L("shard", sc.Name)))
		rt.mHealthy[i].Set(1)
	}

	mux := http.NewServeMux()
	mux.Handle("POST /v1/estimate", http.HandlerFunc(rt.handleEstimate))
	mux.Handle("POST /v1/ingest", http.HandlerFunc(rt.handleIngest))
	mux.Handle("POST /v1/models", http.HandlerFunc(rt.handleModelsPost))
	mux.Handle("GET /v1/models", http.HandlerFunc(rt.handleModelsGet))
	mux.Handle("POST /v1/stream", http.HandlerFunc(rt.handleStream))
	mux.Handle("GET /v1/stream", http.HandlerFunc(rt.handleStream))
	mux.Handle("GET /healthz", http.HandlerFunc(rt.handleHealthz))
	mux.Handle("GET /readyz", http.HandlerFunc(rt.handleReadyz))
	mux.Handle("GET /metrics", http.HandlerFunc(rt.handleMetrics))
	rt.handler = mux
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.handler }

// Metrics returns the router's metrics registry (tests and embedding).
func (rt *Router) Metrics() *metrics.Registry { return rt.reg }

// Close stops background loops. Idempotent.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.closed) })
	rt.loops.Wait()
}

// Run starts the health and model-sync loops; they stop when ctx is
// canceled or Close is called.
func (rt *Router) Run(ctx context.Context) {
	rt.loops.Add(2)
	go rt.healthLoop(ctx)
	go rt.syncLoop(ctx)
}

// SetModel installs a model blob as the router's replication source of
// truth (validated, fingerprinted) without pushing it anywhere yet; the
// sync loop converges shards onto it. Used by `spire route -model`.
func (rt *Router) SetModel(blob []byte) (string, error) {
	ens, err := core.LoadEnsemble(bytes.NewReader(blob))
	if err != nil {
		return "", err
	}
	if err := ens.CheckInvariants(); err != nil {
		return "", err
	}
	id, err := ens.Fingerprint()
	if err != nil {
		return "", err
	}
	rt.modelMu.Lock()
	rt.modelBytes = append([]byte(nil), blob...)
	rt.modelID = id
	rt.modelMu.Unlock()
	return id, nil
}

// --- routing core ---------------------------------------------------

// errNoShard means every shard was unhealthy or load-saturated.
var errNoShard = errors.New("no healthy shard available")

// pick returns candidate shards for key in failover order: the
// bounded-load walk first (healthy shards under their fair share), then
// any remaining healthy shards as overflow targets — a saturated shard
// beats a 503.
func (rt *Router) pick(key string) []*shard {
	order := rt.ring.walk(key)
	candidates := make([]*shard, 0, len(order))
	var overflow []*shard
	healthyCount := 0
	var totalLoad int64
	for _, sh := range rt.shards {
		if sh.healthy.Load() {
			healthyCount++
			totalLoad += sh.inflight.Load()
		}
	}
	if healthyCount == 0 {
		return nil
	}
	// Bounded load: fair share of (totalLoad+1) scaled by the factor,
	// and never below 1 so an idle cluster always admits.
	capacity := int64(rt.cfg.LoadFactor * float64(totalLoad+1) / float64(healthyCount))
	if capacity < 1 {
		capacity = 1
	}
	for _, idx := range order {
		sh := rt.shards[idx]
		if !sh.healthy.Load() {
			continue
		}
		if sh.inflight.Load() >= capacity {
			overflow = append(overflow, sh)
			continue
		}
		candidates = append(candidates, sh)
	}
	return append(candidates, overflow...)
}

// relay walks candidates until one yields a definitive response. The
// bool reports whether a non-first candidate answered (failover).
func (rt *Router) relay(ctx context.Context, candidates []*shard, req client.RawRequest) (*client.RawResponse, *shard, bool, error) {
	var lastErr error
	for i, sh := range candidates {
		sh.inflight.Add(1)
		rt.mInflight.Add(1)
		res, err := sh.cl.DoRaw(ctx, req)
		sh.inflight.Add(-1)
		rt.mInflight.Add(-1)
		if err != nil {
			// Transport-level death: mark the shard down immediately so
			// concurrent requests stop walking into it; the health loop
			// restores it when /readyz answers again.
			sh.healthy.Store(false)
			lastErr = err
			continue
		}
		// Gateway-ish statuses mean the shard is up but cannot serve
		// (draining, no model yet): fail over rather than relay, unless
		// this is the last candidate — then the honest shard answer beats
		// a synthetic router error.
		if (res.Status == http.StatusBadGateway || res.Status == http.StatusServiceUnavailable ||
			res.Status == http.StatusGatewayTimeout) && i < len(candidates)-1 {
			lastErr = fmt.Errorf("shard %s: status %d", sh.name, res.Status)
			continue
		}
		return res, sh, i > 0, nil
	}
	if lastErr == nil {
		lastErr = errNoShard
	}
	return nil, nil, false, lastErr
}

// copyRelayHeaders forwards the shard's response headers, dropping the
// ones the router's own write recomputes.
func copyRelayHeaders(dst http.ResponseWriter, src http.Header) {
	for k, vs := range src {
		switch k {
		case "Date", "Content-Length", "Transfer-Encoding", "Connection":
			continue
		}
		for _, v := range vs {
			dst.Header().Add(k, v)
		}
	}
}

// serveRelay routes one buffered exchange and writes the outcome,
// keeping the books balanced: exactly one of relayed{primary},
// relayed{failover}, rejected{reason} per request.
func (rt *Router) serveRelay(w http.ResponseWriter, r *http.Request, route, key string, req client.RawRequest) {
	rt.mRequests[route].Inc()
	if rt.draining.Load() {
		rt.reject(w, route, "draining", http.StatusServiceUnavailable, "router draining")
		return
	}
	candidates := rt.pick(key)
	if len(candidates) == 0 {
		rt.reject(w, route, "no_shard", http.StatusServiceUnavailable, "no healthy shard available")
		return
	}
	res, sh, failedOver, err := rt.relay(r.Context(), candidates, req)
	if err != nil {
		rt.reject(w, route, "no_shard", http.StatusServiceUnavailable, "all shards failed: %v", err)
		return
	}
	path := "primary"
	if failedOver {
		path = "failover"
		rt.mFailovers.Inc()
	}
	rt.mRelayed[route+"|"+path].Inc()
	copyRelayHeaders(w, res.Header)
	w.Header().Set("X-Spire-Shard", sh.name)
	w.WriteHeader(res.Status)
	w.Write(res.Body)
}

// reject writes a router-generated error and books it under reason.
func (rt *Router) reject(w http.ResponseWriter, route, reason string, code int, format string, args ...any) {
	rt.mRejected[route+"|"+reason].Inc()
	writeError(w, code, format, args...)
}

// writeError emits the same {"error": "..."} JSON shape serve uses.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	raw, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
	w.Write(append(raw, '\n'))
}

// readBody buffers the body, up to the cap, as a shard reads it.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return wire.ReadBody(new(bytes.Buffer), http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes), min(r.ContentLength, rt.cfg.MaxBodyBytes))
}

// rejectRead answers a body read error as a shard does: 413 past the cap,
// otherwise 400 naming the error (a truncated body, a reset connection).
func (rt *Router) rejectRead(w http.ResponseWriter, route string, err error) {
	rt.mRequests[route].Inc()
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		rt.reject(w, route, "body_too_large", http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes", tooBig.Limit)
		return
	}
	rt.reject(w, route, "malformed_body", http.StatusBadRequest, "malformed request body: %v", err)
}

// bodyKey is the routing fallback for bodies the router cannot decode:
// stable content hash so retries of the same bad payload land on the
// same shard (and its error answer stays byte-identical).
func bodyKey(body []byte) string {
	h := fnv.New64a()
	h.Write(body)
	return fmt.Sprintf("body:%x", h.Sum64())
}

// handleEstimate decodes the workload (JSON or SPB1), routes by the
// engine's workload content key, and relays the shard's bytes
// verbatim. The shard hop is always SPB1 when the body decodes — the
// compact encoding — while the response encoding follows the client's
// own Accept header, which passes through untouched.
func (rt *Router) handleEstimate(w http.ResponseWriter, r *http.Request) {
	const route = "/v1/estimate"
	body, err := rt.readBody(w, r)
	if err != nil {
		rt.rejectRead(w, route, err)
		return
	}

	key := ""
	upstreamBody := body
	upstreamCT := r.Header.Get("Content-Type")
	// The same reader the shard uses, so a body the shard would reject
	// fails here too and is forwarded raw instead.
	if req, err := wire.DecodeEstimateBody(body, upstreamCT); err == nil && len(req.Samples) > 0 {
		key = engine.WorkloadKey(req.Samples)
		upstreamBody = wire.AppendEstimateRequest(nil, req)
		upstreamCT = wire.ContentTypeBin
	} else {
		// Undecodable or empty payloads still route — to a stable shard
		// — so the client receives the shard's canonical error body,
		// byte-identical to what a single node would say.
		key = bodyKey(body)
	}

	rt.serveRelay(w, r, route, key, client.RawRequest{
		Path:        "/v1/estimate",
		Query:       r.URL.RawQuery,
		Body:        upstreamBody,
		ContentType: upstreamCT,
		Accept:      r.Header.Get("Accept"),
		Tenant:      r.Header.Get(client.TenantHeader),
		Idempotent:  true,
	})
}

// handleIngest routes a stateless parse by body content hash.
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	const route = "/v1/ingest"
	body, err := rt.readBody(w, r)
	if err != nil {
		rt.rejectRead(w, route, err)
		return
	}
	rt.serveRelay(w, r, route, bodyKey(body), client.RawRequest{
		Path:        "/v1/ingest",
		Query:       r.URL.RawQuery,
		Body:        body,
		ContentType: r.Header.Get("Content-Type"),
		Accept:      r.Header.Get("Accept"),
		Tenant:      r.Header.Get(client.TenantHeader),
		Idempotent:  true,
	})
}

// handleStream proxies feed POSTs and SSE GETs to a tenant-sticky
// shard: a tenant's feeds and subscriptions share one shard's hub, so
// subscribers see the windows their feeds close. Streams are
// long-lived and incremental — they bypass DoRaw's buffered relay and
// ride a flushing reverse proxy instead.
func (rt *Router) handleStream(w http.ResponseWriter, r *http.Request) {
	key := "stream:" + r.Header.Get(client.TenantHeader)
	var target *shard
	for _, sh := range rt.pick(key) {
		target = sh
		break
	}
	if target == nil {
		writeError(w, http.StatusServiceUnavailable, "no healthy shard available")
		return
	}
	rt.mStreams.Inc()
	w.Header().Set("X-Spire-Shard", target.name)
	target.proxy.ServeHTTP(w, r)
}

// --- model replication ----------------------------------------------

// handleModelsPost validates the uploaded model, records it as the
// replication source of truth, and pushes it to every healthy shard.
// The response aggregates per-shard outcomes; the sync loop repairs any
// shard that was down or diverged.
func (rt *Router) handleModelsPost(w http.ResponseWriter, r *http.Request) {
	body, err := rt.readBody(w, r)
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "model exceeds %d bytes", rt.cfg.MaxBodyBytes)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed request body: %v", err)
		return
	}
	id, err := rt.SetModel(body)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "model rejected: %v", err)
		return
	}
	pushed, errs := rt.pushAll(r.Context())
	type pushResult struct {
		ID     string   `json:"id"`
		Pushed int      `json:"pushed"`
		Shards int      `json:"shards"`
		Errors []string `json:"errors,omitempty"`
	}
	res := pushResult{ID: id, Pushed: pushed, Shards: len(rt.shards), Errors: errs}
	code := http.StatusOK
	if pushed == 0 {
		// Accepted locally but landed nowhere yet; the sync loop will
		// keep trying. 202 tells the caller convergence is pending.
		code = http.StatusAccepted
	}
	raw, _ := json.Marshal(res)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(raw, '\n'))
}

// handleModelsGet reports the router's source-of-truth model and each
// shard's last-known serving model — the convergence picture.
func (rt *Router) handleModelsGet(w http.ResponseWriter, r *http.Request) {
	rt.modelMu.RLock()
	id := rt.modelID
	rt.modelMu.RUnlock()
	type shardModel struct {
		Model   string `json:"model,omitempty"`
		Healthy bool   `json:"healthy"`
	}
	out := struct {
		Current string                `json:"current,omitempty"`
		Shards  map[string]shardModel `json:"shards"`
	}{Current: id, Shards: make(map[string]shardModel, len(rt.shards))}
	for _, sh := range rt.shards {
		out.Shards[sh.name] = shardModel{
			Model:   sh.modelID.Load().(string),
			Healthy: sh.healthy.Load(),
		}
	}
	raw, _ := json.Marshal(out)
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(raw, '\n'))
}

// pushAll pushes the current model to every diverged shard. It
// deliberately ignores the health flag: a freshly restarted shard is
// reachable but UNready (no model yet, so its /readyz says 503) — the
// push is exactly what makes it ready. Skipping unhealthy shards here
// would deadlock the recovery: unready because no model, no model
// because unready. Truly dead shards just fail the POST quickly.
func (rt *Router) pushAll(ctx context.Context) (pushed int, errs []string) {
	rt.modelMu.RLock()
	blob, id := rt.modelBytes, rt.modelID
	rt.modelMu.RUnlock()
	if id == "" {
		return 0, nil
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, sh := range rt.shards {
		if sh.modelID.Load().(string) == id {
			continue
		}
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			err := rt.pushOne(ctx, sh, blob, id)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Sprintf("%s: %v", sh.name, err))
				return
			}
			pushed++
		}(sh)
	}
	wg.Wait()
	return pushed, errs
}

// pushOne POSTs the blob to one shard and verifies the shard derived
// the same fingerprint — content addressing makes the push idempotent
// and detects corruption in transit.
func (rt *Router) pushOne(ctx context.Context, sh *shard, blob []byte, id string) error {
	res, err := sh.cl.DoRaw(ctx, client.RawRequest{
		Path:        "/v1/models",
		Body:        blob,
		ContentType: "application/octet-stream",
		Idempotent:  true,
	})
	if err != nil {
		sh.healthy.Store(false)
		return err
	}
	if res.Status != http.StatusOK {
		return fmt.Errorf("status %d: %s", res.Status, strings.TrimSpace(string(res.Body)))
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(res.Body, &info); err != nil {
		return fmt.Errorf("bad model response: %w", err)
	}
	if info.ID != id {
		return fmt.Errorf("fingerprint mismatch: pushed %s, shard derived %s", id, info.ID)
	}
	sh.modelID.Store(id)
	rt.mPushes.Inc()
	return nil
}

// --- background loops -----------------------------------------------

func (rt *Router) healthLoop(ctx context.Context) {
	defer rt.loops.Done()
	tick := time.NewTicker(time.Duration(rt.cfg.HealthInterval))
	defer tick.Stop()
	for {
		rt.probeAll(ctx)
		select {
		case <-ctx.Done():
			return
		case <-rt.closed:
			return
		case <-tick.C:
		}
	}
}

// minProbeTimeout floors the /readyz probe timeout: bounded by a short
// HealthInterval alone, a CPU-starved probe marks healthy shards down.
const minProbeTimeout = time.Second

// probeAll refreshes every shard's health and serving model in one
// sweep; concurrent so one dead shard's timeout doesn't delay the rest.
func (rt *Router) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for i, sh := range rt.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, max(time.Duration(rt.cfg.HealthInterval), minProbeTimeout))
			defer cancel()
			ready, err := sh.cl.Readyz(pctx)
			ok := err == nil && ready
			sh.healthy.Store(ok)
			if ok {
				rt.mHealthy[i].Set(1)
				rt.refreshShardModel(pctx, sh)
			} else {
				rt.mHealthy[i].Set(0)
				// A restarted shard comes back empty; forget its model so
				// the sync loop re-pushes.
				sh.modelID.Store("")
			}
		}(i, sh)
	}
	wg.Wait()
}

// refreshShardModel records what the shard says it is serving.
func (rt *Router) refreshShardModel(ctx context.Context, sh *shard) {
	res, err := sh.cl.DoRaw(ctx, client.RawRequest{Method: http.MethodGet, Path: "/v1/models", Idempotent: true})
	if err != nil || res.Status != http.StatusOK {
		return
	}
	var out struct {
		Current *struct {
			ID string `json:"id"`
		} `json:"current"`
	}
	if json.Unmarshal(res.Body, &out) == nil {
		if out.Current != nil {
			sh.modelID.Store(out.Current.ID)
		} else {
			sh.modelID.Store("")
		}
	}
}

func (rt *Router) syncLoop(ctx context.Context) {
	defer rt.loops.Done()
	tick := time.NewTicker(time.Duration(rt.cfg.SyncInterval))
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-rt.closed:
			return
		case <-tick.C:
			rt.pushAll(ctx)
		}
	}
}

// --- health & metrics endpoints -------------------------------------

// RouterHealth is the router's GET /healthz response body. Like the
// shard endpoint it carries the build info, so a cluster operator can
// audit version skew across the fleet from health probes alone.
type RouterHealth struct {
	Status    string `json:"status"`
	Shards    int    `json:"shards"`
	Version   string `json:"version"`
	Revision  string `json:"revision,omitempty"`
	GoVersion string `json:"goVersion"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	raw, _ := json.Marshal(RouterHealth{
		Status:    "ok",
		Shards:    len(rt.shards),
		Version:   buildinfo.Version,
		Revision:  buildinfo.Revision(),
		GoVersion: buildinfo.GoVersion(),
	})
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(raw, '\n'))
}

// handleReadyz is ready when at least one shard is — a router with no
// backends cannot serve anything.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	healthy := 0
	for _, sh := range rt.shards {
		if sh.healthy.Load() {
			healthy++
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if rt.draining.Load() || healthy == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "unready: %d/%d shards healthy\n", healthy, len(rt.shards))
		return
	}
	fmt.Fprintf(w, "ok: %d/%d shards healthy\n", healthy, len(rt.shards))
}

// aggregated families pulled from shard /metrics into the router's own
// exposition under a shard label — the cluster-wide serving picture at
// one scrape address.
var aggregateFamilies = []string{
	"spire_estimates_served_total",
	"spire_estimates_degraded_total",
	"spire_ingested_samples_total",
	"spire_model_swaps_total",
}

// handleMetrics renders the router's own registry, then appends
// shard-labelled copies of a fixed allowlist of backend families,
// scraped live. One scrape endpoint tells the whole cluster story; a
// down shard simply contributes nothing this scrape.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.reg.Render(w)

	type scraped struct {
		name  string
		lines []string
	}
	results := make([]scraped, len(rt.shards))
	var wg sync.WaitGroup
	for i, sh := range rt.shards {
		if !sh.healthy.Load() {
			continue
		}
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
			defer cancel()
			res, err := sh.cl.DoRaw(ctx, client.RawRequest{Method: http.MethodGet, Path: "/metrics", Idempotent: true})
			if err != nil || res.Status != http.StatusOK {
				return
			}
			results[i] = scraped{name: sh.name, lines: filterFamilies(string(res.Body), aggregateFamilies)}
		}(i, sh)
	}
	wg.Wait()
	for _, sc := range results {
		for _, line := range sc.lines {
			fmt.Fprintf(w, "%s\n", relabelWithShard(line, sc.name))
		}
	}
}

// filterFamilies keeps sample lines (not comments) whose family is in
// the allowlist.
func filterFamilies(exposition string, families []string) []string {
	var out []string
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		for _, fam := range families {
			if name == fam {
				out = append(out, line)
				break
			}
		}
	}
	return out
}

// relabelWithShard rewrites `family{a="b"} v` / `family v` into
// `spire_cluster_family{shard="name",a="b"} v`.
func relabelWithShard(line, shard string) string {
	name := line
	rest := ""
	if i := strings.IndexAny(line, "{ "); i >= 0 {
		name, rest = line[:i], line[i:]
	}
	label := fmt.Sprintf("{shard=%q", shard)
	switch {
	case strings.HasPrefix(rest, "{"):
		return "spire_cluster_" + strings.TrimPrefix(name, "spire_") + label + "," + rest[1:]
	default:
		return "spire_cluster_" + strings.TrimPrefix(name, "spire_") + label + "}" + rest
	}
}

// --- serving --------------------------------------------------------

// Serve runs the router on ln with background loops until ctx is
// canceled, then flips readiness, drains for up to drain, and returns.
func (rt *Router) Serve(ctx context.Context, ln net.Listener, drain time.Duration) error {
	rt.Run(ctx)
	srv := &http.Server{Handler: rt.handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		rt.Close()
		return err
	case <-ctx.Done():
	}
	// Drain order mirrors serve: readiness flips first so load
	// balancers stop sending, then in-flight exchanges finish.
	rt.draining.Store(true)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := srv.Shutdown(sctx)
	rt.Close()
	return err
}
