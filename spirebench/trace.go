package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names one layer boundary the traced run records. Live kinds
// wrap the public entry points of the running servers; replay kinds time
// one stage of the in-process replay of a request.
type spanKind uint8

const (
	kindClient          spanKind = iota // client round trip, request sent to body read
	kindClusterHandler                  // router Handler().ServeHTTP
	kindClusterUpstream                 // router→shard exchange, request out to body closed
	kindServeHandler                    // shard Handler().ServeHTTP
	kindReplayRouter                    // replay root: the router's stages
	kindReplayServe                     // replay root: the shard's stages
	kindReplayStream                    // replay root: one stream interval
	kindJSONDecode                      // encoding/json request decode
	kindJSONEncode                      // encoding/json response encode
	kindWireDecode                      // wire.DecodeEstimateRequest
	kindWireEncode                      // wire.Append{EstimateRequest,EstimateResponse}
	kindAdmission                       // admission.Controller.Acquire + release
	kindEngineKey                       // engine.WorkloadKey
	kindEngineIndex                     // engine.Engine.Index
	kindIndexBuild                      // core.IndexWorkload (index-cache misses)
	kindEngineEstimate                  // engine.Engine.EstimateIndexed
	kindCoreEval                        // core.Ensemble.BatchEstimateInto, Workers=1
	kindCombine                         // analysis.Combine
	kindIngestFeed                      // ingest.Incremental.Feed
	kindStreamPush                      // stream.Windower.Push
	kindStreamEstimate                  // stream.Estimator.Estimate
	numKinds
)

var kindNames = [numKinds]string{
	"client", "cluster.handler", "cluster.upstream", "serve.handler",
	"replay.router", "replay.serve", "replay.stream",
	"json.decode", "json.encode", "wire.decode", "wire.encode",
	"admission.acquire", "engine.key", "engine.index", "core.index_build",
	"engine.estimate", "core.eval", "analysis.combine",
	"ingest.feed", "stream.push", "stream.estimate",
}

// span is one recorded interval. Live spans are linked to their parents
// by request ID and kind when the trace is analyzed; replay spans carry
// their parent's index directly.
type span struct {
	kind   spanKind
	parent int32 // index of the parent span; -1 for roots and live spans
	req    int64 // request ID shared by every span of one request
	start  int64 // ns since the tracer's base
	end    int64
	n      int64 // kind-specific size: bytes, samples or events
}

func (s span) dur() int64 { return s.end - s.start }

// requestHeader carries the request ID from the client to the router and
// from the router to the shard.
const requestHeader = "X-Bench-Request-Id"

type reqIDKey struct{}

// tracer keeps spans in memory for the length of one run. A nil tracer
// disables every hook.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
	// upstream counts bytes on the router→shard hop.
	upstreamBytes atomic.Int64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// record appends a finished span and returns its index.
func (t *tracer) record(s span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// open records a root whose end is filled in by closeSpan.
func (t *tracer) open(kind spanKind, req int64) int32 {
	return t.record(span{kind: kind, parent: -1, req: req, start: t.now()})
}

func (t *tracer) closeSpan(i int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[i].end = end
	t.mu.Unlock()
}

func (t *tracer) setN(i int32, n int64) {
	t.mu.Lock()
	t.spans[i].n = n
	t.mu.Unlock()
}

// stage times f as a child span of parent.
func (t *tracer) stage(kind spanKind, parent int32, req int64, n int64, f func()) {
	start := t.now()
	f()
	t.record(span{kind: kind, parent: parent, req: req, start: start, end: t.now(), n: n})
}

// wrap returns h with a span around every ServeHTTP that carries a
// request ID. Untagged traffic (health probes, model uploads, the SSE
// subscription) passes through unrecorded.
func (t *tracer) wrap(h http.Handler, kind spanKind) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(requestHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id)))
		t.record(span{kind: kind, parent: -1, req: id, start: start, end: t.now()})
	})
}

// transport is the router's shard transport: it forwards the request ID
// and records each router→shard exchange with its bytes.
func (t *tracer) transport() http.RoundTripper {
	if t == nil {
		return nil
	}
	return &tracedTransport{t: t, base: http.DefaultTransport}
}

type tracedTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, ok := req.Context().Value(reqIDKey{}).(int64)
	if !ok {
		return tt.base.RoundTrip(req)
	}
	out := req.Clone(req.Context())
	out.Header.Set(requestHeader, strconv.FormatInt(id, 10))
	start := tt.t.now()
	resp, err := tt.base.RoundTrip(out)
	if err != nil {
		return nil, err
	}
	tt.t.upstreamBytes.Add(max(req.ContentLength, 0))
	resp.Body = &tracedBody{ReadCloser: resp.Body, t: tt.t, id: id, start: start}
	return resp, nil
}

// tracedBody ends the upstream span when the router has consumed the
// shard's response.
type tracedBody struct {
	io.ReadCloser
	t     *tracer
	id    int64
	start int64
	n     int64
	once  sync.Once
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *tracedBody) finish() {
	b.once.Do(func() {
		b.t.upstreamBytes.Add(b.n)
		b.t.record(span{kind: kindClusterUpstream, parent: -1, req: b.id, start: b.start, end: b.t.now(), n: b.n})
	})
}

// writeSpans writes the trace as tab-separated rows: span index, parent
// index, request ID, kind, start and end in ns, size.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tkind\tstart_ns\tend_ns\tn")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", i, s.parent, s.req, kindNames[s.kind], s.start, s.end, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
