package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"spire/internal/core"
	"spire/internal/engine"
	"spire/internal/stream"
)

const (
	// setupRounds is how many times a run deploys; setup_s is the median.
	setupRounds = 9
	// warmup precedes every timed phase: connections open, caches fill
	// and the heap reaches its working size.
	warmup = time.Second
	// streamRate is stream-live's open-loop interval rate. At 400/s the
	// window latency tail (a per-second p99 median) spread by 35 % of its
	// median across ten runs on a two-vCPU VM; at 200/s by 9.5 % in two
	// sets of ten and 91.5 % in a third, run in a slow stretch of the host.
	streamRate = 200
	// genLagLimitMs marks a stream-live run invalid when the generator's
	// p99 lateness exceeds it (20 intervals): the offered schedule was not
	// kept.
	genLagLimitMs = 100.0
)

// runResult is one run's outcome.
type runResult struct {
	attempted, failed int64
	e2e               map[string]float64 // BENCHMARK.json end_to_end metrics
	extra             map[string]float64 // workload-specific end-to-end metrics
	layers            map[string]float64 // traced runs only
	problems          []string           // output mismatches and failed predictions
}

func (r *runResult) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// runWorkload simulates the inputs, deploys setupRounds times, drives the
// workload for seconds and checks every output.
func runWorkload(name string, seed int64, seconds int, traced bool) (*runResult, error) {
	var topo setupOptions
	switch name {
	case "serve-hot", "stream-live":
		topo = setupOptions{shards: 1}
	case "route-cold":
		topo = setupOptions{shards: 2, routed: true}
	default:
		return nil, fmt.Errorf("unknown workload %q (want serve-hot, route-cold or stream-live)", name)
	}
	in, err := generate(seed)
	if err != nil {
		return nil, err
	}
	train := in.trainingData()
	var tr *tracer
	if traced {
		tr = newTracer()
		topo.tracer = tr
	}
	var d *deployment
	setups := make([]float64, 0, setupRounds)
	for i := 0; i < setupRounds; i++ {
		if d != nil {
			d.close()
		}
		start := time.Now()
		if d, err = deploy(train, topo); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.close()

	res := &runResult{e2e: map[string]float64{}, extra: map[string]float64{}}
	res.e2e["setup_s"] = percentile(setups, 50)
	measure := time.Duration(seconds) * time.Second
	switch name {
	case "serve-hot":
		err = runServeHot(in, d, measure, tr, res)
	case "route-cold":
		err = runRouteCold(in, d, measure, tr, res)
	case "stream-live":
		err = runStreamLive(in, d, measure, tr, res)
	}
	if err != nil {
		return nil, err
	}
	if res.attempted > 0 {
		res.extra["error_rate"] = float64(res.failed) / float64(res.attempted)
	}

	// Live heap with the servers up once the generator's inputs are
	// unreachable: the model, the caches and the hub. The second cycle
	// empties the sync.Pool victim caches, which hold whatever the last
	// requests happened to leave.
	runtime.GC()
	runtime.GC()
	res.e2e["heap_live_mb"] = float64(readUint(metricHeapLive)) / (1 << 20)

	if traced {
		res.layers["admission.rejected"] = scrapeSum(d.urls, "spire_admission_rejected_total")
		res.layers["stream.dropped_windows"] = scrapeSum(d.urls, "spire_stream_windows_dropped_total") +
			scrapeSum(d.urls, "spire_stream_subscriber_dropped_total")
		if d.router != nil {
			var buf bytes.Buffer
			d.router.Metrics().Render(&buf)
			res.layers["cluster.failovers"] = sumFamily(buf.String(), "spire_route_failovers_total")
		}
		checkPredictions(name, res)
		path := filepath.Join(".bench_build", "spans-"+name+".tsv")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := tr.writeSpans(path); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// closedLoopMetrics fills the end-to-end metrics shared by the request
// workloads from the measured ops. Every failed op, whether a transport
// failure, a status other than 200 or wrong bytes, is a problem and fails
// the run.
func closedLoopMetrics(ops []op, allocs uint64, res *runResult) {
	var all, js, bin []float64
	var last int64
	hits := 0
	for _, o := range ops {
		res.attempted++
		if !o.ok {
			res.failed++
			switch {
			case len(res.problems) > 0:
			case o.status == 0:
				res.problem("request %d (pool entry %d, SPB1=%v): transport failure", o.n, o.entry, o.bin)
			case o.status != http.StatusOK:
				res.problem("request %d (pool entry %d, SPB1=%v): answered %d", o.n, o.entry, o.bin, o.status)
			default:
				res.problem("request %d (pool entry %d, SPB1=%v): response differs from the reference", o.n, o.entry, o.bin)
			}
			continue
		}
		l := o.latency()
		all = append(all, l)
		if o.bin {
			bin = append(bin, l)
		} else {
			js = append(js, l)
		}
		if o.hit {
			hits++
		}
		last = max(last, o.end)
	}
	if res.failed > 1 {
		res.problem("%d of %d measured requests failed", res.failed, res.attempted)
	}
	if len(all) == 0 {
		return
	}
	first := last
	for _, o := range ops {
		first = min(first, o.start)
	}
	elapsed := time.Duration(last - first)
	res.e2e["throughput_ops"] = float64(len(all)) / elapsed.Seconds()
	res.e2e["latency_p50_ms"] = percentile(all, 50)
	res.extra["latency_p99_ms"] = percentile(all, 99)
	res.e2e["alloc_kb_per_op"] = float64(allocs) / 1024 / float64(len(all))
	res.extra["json.latency_p50_ms"] = percentile(js, 50)
	res.extra["spb1.latency_p50_ms"] = percentile(bin, 50)
	res.extra["index_hit_ratio"] = float64(hits) / float64(len(all))
}

// timed runs a closed loop: warm-up, then the measured phase, returning
// the measured ops and the bytes allocated while measuring.
func timed(cl closedLoop, measure time.Duration) ([]op, uint64) {
	base := time.Now()
	from := base.Add(warmup)
	// Allocation is counted from the end of warm-up.
	var allocStart uint64
	done := make(chan struct{})
	go func() {
		time.Sleep(time.Until(from))
		allocStart = readUint(metricAllocBytes)
		close(done)
	}()
	ops := cl.run(base, from, from.Add(measure))
	<-done
	return ops, readUint(metricAllocBytes) - allocStart
}

func runServeHot(in *inputs, d *deployment, measure time.Duration, tr *tracer, res *runResult) error {
	reqs, err := in.hotRequests()
	if err != nil {
		return err
	}
	// Reference bytes per workload and encoding, built before timing
	// through the same public functions a shard calls.
	eng := engine.New(engine.Options{})
	refs := make([][2][]byte, len(reqs))
	for i, r := range reqs {
		if refs[i][0], err = reference(eng, d, r.json, false, false); err != nil {
			return err
		}
		if refs[i][1], err = reference(eng, d, r.bin, true, true); err != nil {
			return err
		}
	}
	coins := coinFlips(in.seed)
	body := func(n int64, _ []byte) ([]byte, bool, int) {
		e := int((n - 1) % int64(len(reqs)))
		if coins(n) {
			return reqs[e].bin, true, e
		}
		return reqs[e].json, false, e
	}
	check := func(e int, bin bool, resp []byte) bool {
		if bin {
			return bytes.Equal(resp, refs[e][1])
		}
		return bytes.Equal(resp, refs[e][0])
	}
	cl := closedLoop{url: d.url, body: body, check: check, tr: tr}
	var rp *replayer
	if tr != nil {
		rp = newReplayer(tr, d, false)
		// Warm the mirror index cache as the shard's warms.
		for _, r := range reqs {
			rp.eng.Index(r.samples)
		}
		cl.replay = rp.sample
	}
	ops, allocs := timed(cl, measure)
	closedLoopMetrics(ops, allocs, res)
	if tr == nil {
		return nil
	}
	return requestLayers(tr, d, rp, ops, body, res)
}

func runRouteCold(in *inputs, d *deployment, measure time.Duration, tr *tracer, res *runResult) error {
	pool, err := in.coldRequests()
	if err != nil {
		return err
	}
	coins := coinFlips(in.seed)
	maxWin := 0
	for _, r := range pool {
		maxWin = max(maxWin, r.baseWin[len(r.baseWin)-1])
	}
	body := func(n int64, buf []byte) ([]byte, bool, int) {
		e := int(mix(in.seed, n) % uint64(len(pool)))
		bin := coins(n)
		return pool[e].patched(buf, bin, int(n)*winStride), bin, e
	}
	cl := closedLoop{url: d.url, body: body, hash: true, tr: tr}
	var rp *replayer
	if tr != nil {
		rp = newReplayer(tr, d, true)
		cl.replay = rp.sample
	}
	ops, allocs := timed(cl, measure)
	for _, o := range ops {
		if maxWin+int(o.n)*winStride > winLimit {
			return fmt.Errorf("route-cold sent %d requests; window offsets overflow 8 digits", o.n)
		}
	}
	// Every response is checked after the timed phase against an
	// in-process reference estimation of its workload. A window offset
	// shifts every window of the request alike, which leaves Eq. 1 and
	// hence the response unchanged, so each pool entry has one reference
	// per encoding.
	eng := engine.New(engine.Options{})
	type refKey struct {
		entry int32
		bin   bool
	}
	refs := map[refKey][sha256.Size]byte{}
	for i := range ops {
		o := &ops[i]
		if o.status != http.StatusOK {
			continue
		}
		k := refKey{o.entry, o.bin}
		want, ok := refs[k]
		if !ok {
			raw, bin, _ := body(o.n, nil)
			ref, err := reference(eng, d, raw, bin, bin)
			if err != nil {
				return err
			}
			want = sha256.Sum256(ref)
			refs[k] = want
		}
		o.ok = o.sum == want
	}
	closedLoopMetrics(ops, allocs, res)
	if tr == nil {
		return nil
	}
	return requestLayers(tr, d, rp, ops, body, res)
}

// requestLayers computes the per-layer metrics of a traced request
// workload once its load has stopped.
func requestLayers(tr *tracer, d *deployment, rp *replayer, ops []op, body func(int64, []byte) ([]byte, bool, int), res *runResult) error {
	if rp.err != nil {
		return rp.err
	}
	// The allocation probe re-estimates a few measured workloads.
	var ixs []*core.WorkloadIndex
	for _, o := range ops {
		if !o.ok || len(ixs) == 64 {
			continue
		}
		raw, bin, _ := body(o.n, nil)
		samples, _, err := decodeBody(raw, bin)
		if err != nil {
			return err
		}
		ixs = append(ixs, core.IndexWorkload(core.Dataset{Samples: samples}))
	}
	res.layers = tr.layerMetrics(layerInputs{
		hitRatio:     res.extra["index_hit_ratio"],
		allocsPerEst: allocsPerEstimate(d, ixs),
		throughput:   res.e2e["throughput_ops"],
	})
	return nil
}

func runStreamLive(in *inputs, d *deployment, measure time.Duration, tr *tracer, res *runResult) error {
	src := in.streamSource()
	if len(src.intervals) == 0 {
		return errors.New("no complete interval to stream")
	}
	csv := func(k int, buf []byte) []byte { return src.csv(buf, k) }
	ol := openLoop{url: d.url, period: time.Second / streamRate, csv: csv, tr: tr}
	base := time.Now()
	from := base.Add(warmup)
	allocStart := uint64(0)
	allocAt := make(chan struct{})
	go func() {
		time.Sleep(time.Until(from))
		allocStart = readUint(metricAllocBytes)
		close(allocAt)
	}()
	feeds, windows, err := ol.run(base, from.Add(measure))
	<-allocAt
	allocs := readUint(metricAllocBytes) - allocStart
	if err != nil {
		if len(feeds) < 2 {
			return err
		}
		res.problem("%v", err)
	}

	// Replay the same CSV through stream.Pipeline: every window must
	// match byte for byte, and sequence numbers must be contiguous.
	p := stream.NewPipeline(stream.Config{Model: stream.StaticModel(d.ens, d.modelID)})
	want := map[uint64][sha256.Size]byte{}
	var buf []byte
	for k := range feeds {
		buf = csv(k, buf[:0])
		results, err := p.Feed(context.Background(), buf)
		if err != nil {
			return err
		}
		for _, r := range results {
			raw, err := json.Marshal(r)
			if err != nil {
				return err
			}
			want[r.Seq] = sha256.Sum256(raw)
		}
	}
	got := map[uint64]window{}
	for i, w := range windows {
		if i > 0 && w.seq != windows[i-1].seq+1 {
			res.problem("window sequence gap: %d after %d", w.seq, windows[i-1].seq)
		}
		got[w.seq] = w
	}
	fromNs := int64(warmup)
	var lat, lag, stages []float64
	var first, last int64
	var sseBytes float64
	// Traced: the part of each window's path from its closing feed's
	// handler start to its arrival that no replayed stage accounts for,
	// which is the hub queue wait plus SSE delivery.
	var handlerStart, stageTime map[int64]int64
	var ixs []*core.WorkloadIndex
	var offset int64 // run clock to tracer clock
	if tr != nil {
		if ixs, err = replayStream(tr, d, len(feeds), csv); err != nil {
			return err
		}
		handlerStart, stageTime = tr.streamPath()
		offset = int64(base.Sub(tr.base))
	}
	for n := 1; n < len(feeds); n++ {
		f := feeds[n]
		if f.due < fromNs {
			continue
		}
		res.attempted++
		lag = append(lag, float64(f.sent-f.due)/1e6)
		w, ok := got[uint64(n)]
		switch {
		case !ok:
			res.failed++
			res.problem("window %d never arrived", n)
			continue
		case f.status != http.StatusOK:
			res.failed++
			res.problem("feed %d answered %d", n, f.status)
			continue
		case w.sum != want[uint64(n)]:
			res.failed++
			res.problem("window %d differs from the stream.Pipeline replay", n)
			continue
		}
		lat = append(lat, float64(w.recv-f.due)/1e6)
		if first == 0 {
			first = w.recv
		}
		last = w.recv
		sseBytes += float64(w.size)
		if hs, ok := handlerStart[int64(n)]; ok {
			stages = append(stages, us(w.recv+offset-hs-stageTime[int64(n)]))
		}
	}
	if len(lat) < 2 {
		shown := res.problems[:min(3, len(res.problems))]
		return fmt.Errorf("stream-live delivered %d correct windows (%s)", len(lat), strings.Join(shown, "; "))
	}
	if feeds[0].status != http.StatusOK {
		res.failed++
		res.problem("feed 0 answered %d", feeds[0].status)
	}
	res.e2e["latency_p50_ms"] = percentile(lat, 50)
	res.extra["latency_p99_ms"] = percentile(lat, 99)
	// Windows delivered per second of delivery: the open loop fixes the
	// offered rate, so this reads the rate the service kept up with.
	res.e2e["throughput_ops"] = float64(len(lat)-1) / (float64(last-first) / 1e9)
	res.e2e["alloc_kb_per_op"] = float64(allocs) / 1024 / float64(len(lat))
	res.extra["gen_lag_p99_ms"] = percentile(lag, 99)
	if res.extra["gen_lag_p99_ms"] > genLagLimitMs {
		res.problem("invalid run: generator p99 lateness %.3f ms exceeds %.1f ms", res.extra["gen_lag_p99_ms"], genLagLimitMs)
	}
	if tr == nil {
		return nil
	}
	res.layers = tr.layerMetrics(layerInputs{
		allocsPerEst: allocsPerEstimate(d, ixs),
		queueWaitP50: percentile(stages, 50),
		sseBytes:     sseBytes / float64(len(lat)),
		throughput:   res.e2e["throughput_ops"],
	})
	return nil
}

// checkPredictions holds the traced run to the layer predictions the
// benchmark states; a failed one fails the run.
func checkPredictions(name string, res *runResult) {
	m := res.layers
	if m["admission.rejected"] != 0 {
		res.problem("prediction failed: admission rejected %v requests", m["admission.rejected"])
	}
	switch name {
	case "serve-hot":
		if m["engine.index_hit_ratio"] < 0.99 {
			res.problem("prediction failed: serve-hot index hit ratio %.4f < 0.99", m["engine.index_hit_ratio"])
		}
		if m["cluster.self_us_p50"] != 0 || m["cluster.upstream_bytes_per_req"] != 0 {
			res.problem("prediction failed: cluster spans on serve-hot")
		}
	case "route-cold":
		if m["engine.index_hit_ratio"] > 0.01 {
			res.problem("prediction failed: route-cold index hit ratio %.4f > 0.01", m["engine.index_hit_ratio"])
		}
	}
	if c := m["serve.stage_closure"]; name != "stream-live" && (c < 1-closureShare || c > 1+closureShare) {
		res.problem("prediction failed: serve stages sum to %.2f of serve.handler (allowed 1±%.2f)", c, closureShare)
	}
}

// scrapeSum adds up one metric family across the shards' /metrics.
func scrapeSum(urls []string, family string) float64 {
	var total float64
	for _, u := range urls {
		resp, err := setupClient.Get(u + "/metrics")
		if err != nil {
			continue
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		total += sumFamily(string(raw), family)
	}
	return total
}

func sumFamily(exposition, family string) float64 {
	var total float64
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
			total += v
		}
	}
	return total
}

// coinFlips returns the seeded encoding choice for request n: SPB1 with
// probability 1/4. JSON is the default encoding and SPB1 is opt-in, so
// JSON is the majority; an even split would also put the overall median
// latency in the gap between the two encodings' latency modes, where it
// swings with the exact mix.
func coinFlips(seed int64) func(n int64) bool {
	return func(n int64) bool { return mix(seed, n)>>62 == 0 }
}

// mix is splitmix64 over (seed, n): a stateless seeded stream.
func mix(seed, n int64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(n)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}
