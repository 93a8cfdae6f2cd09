package main

import "sort"

// closureShare is the stated budget-closure tolerance: the median sum of
// a request's replayed serve stages must lie within this share of the
// median traced serve.handler span. The handler also reads the body from
// the connection, writes headers and the response, and updates metrics;
// none of that is a replayed stage.
const closureShare = 0.35

// closureKinds are the replayed stages that add up to serve.handler: the
// request path inside the shard. engine.key counts once beside
// engine.index because the handler hashes the workload a second time for
// its degraded-mode cache key. Probes that re-measure part of a stage
// (core.index_build, core.eval) are left out. A stream feed's handler
// runs only ingest.feed; the rest of the stream path runs on the hub.
var closureKinds = map[spanKind]bool{
	kindAdmission: true, kindJSONDecode: true, kindWireDecode: true, kindEngineKey: true,
	kindEngineIndex: true, kindEngineEstimate: true, kindCombine: true,
	kindJSONEncode: true, kindWireEncode: true,
}

// liveSpans indexes one request's live spans by kind (-1: absent).
type liveSpans [kindServeHandler + 1]int32

// link sets each live span's parent: serve.handler under the upstream
// exchange (routed) or the client, the upstream exchange under the router
// handler, the router handler under the client.
func (t *tracer) link() map[int64]*liveSpans {
	byReq := map[int64]*liveSpans{}
	for i, s := range t.spans {
		if s.kind > kindServeHandler {
			continue
		}
		ls := byReq[s.req]
		if ls == nil {
			ls = &liveSpans{-1, -1, -1, -1}
			byReq[s.req] = ls
		}
		ls[s.kind] = int32(i)
	}
	for _, ls := range byReq {
		parent := ls[kindClient]
		for k := kindClusterHandler; k <= kindServeHandler; k++ {
			if ls[k] >= 0 {
				t.spans[ls[k]].parent = parent
				parent = ls[k]
			}
		}
	}
	return byReq
}

// layerInputs are the per-layer figures measured outside the trace.
// The servers' own counters (admission rejections, stream drops,
// failovers) are scraped separately once the run ends.
type layerInputs struct {
	hitRatio     float64
	allocsPerEst float64
	queueWaitP50 float64
	sseBytes     float64
	throughput   float64
}

// layerMetrics computes the per-layer metrics from the trace. Layers a
// workload does not exercise report 0.
func (t *tracer) layerMetrics(in layerInputs) map[string]float64 {
	byReq := t.link()
	m := map[string]float64{
		"engine.index_hit_ratio":      in.hitRatio,
		"engine.allocs_per_estimate":  in.allocsPerEst,
		"stream.queue_wait_us_p50":    in.queueWaitP50,
		"stream.sse_bytes_per_window": in.sseBytes,
		"trace.throughput_ops":        in.throughput,
		"trace.spans":                 float64(len(t.spans)),
	}

	// Replay stages by kind, split where a layer cares about the caller.
	durs := map[string][]float64{}
	sizes := map[string][]float64{}
	add := func(name string, s span) {
		durs[name] = append(durs[name], us(s.dur()))
		sizes[name] = append(sizes[name], float64(s.n))
	}
	stageSum := map[int64]int64{}
	for _, s := range t.spans {
		if s.parent < 0 || s.kind <= kindReplayStream {
			continue
		}
		parentKind := t.spans[s.parent].kind
		add(kindNames[s.kind], s)
		if parentKind == kindReplayServe || parentKind == kindReplayStream {
			switch s.kind {
			case kindJSONDecode:
				add("serve.json_decode", s)
			case kindJSONEncode:
				if parentKind == kindReplayServe {
					add("serve.json_encode", s)
				}
			}
			if (parentKind == kindReplayServe && closureKinds[s.kind]) || s.kind == kindIngestFeed {
				stageSum[s.req] += s.dur()
			}
		}
	}

	var handler, self, sums, netSelf, clusterSelf []float64
	upstreams := 0
	for id, ls := range byReq {
		if ls[kindServeHandler] < 0 {
			continue
		}
		h := t.spans[ls[kindServeHandler]].dur()
		handler = append(handler, us(h))
		if sum, ok := stageSum[id]; ok {
			self = append(self, us(h-sum))
			sums = append(sums, us(sum))
		}
		top := ls[kindServeHandler]
		var hop int64
		if ls[kindClusterHandler] >= 0 && ls[kindClusterUpstream] >= 0 {
			top = ls[kindClusterHandler]
			up := t.spans[ls[kindClusterUpstream]].dur()
			clusterSelf = append(clusterSelf, us(t.spans[top].dur()-up))
			hop = up - h
			upstreams++
		}
		if ls[kindClient] >= 0 {
			netSelf = append(netSelf, us(t.spans[ls[kindClient]].dur()-t.spans[top].dur()+hop))
		}
	}

	m["net.self_us_p50"] = percentile(netSelf, 50)
	m["cluster.self_us_p50"] = percentile(clusterSelf, 50)
	m["cluster.self_us_p99"] = percentile(clusterSelf, 99)
	if upstreams > 0 {
		m["cluster.upstream_bytes_per_req"] = float64(t.upstreamBytes.Load()) / float64(upstreams)
	}
	m["serve.handler_us_p50"] = percentile(handler, 50)
	m["serve.handler_us_p99"] = percentile(handler, 99)
	m["serve.self_us_p50"] = percentile(self, 50)
	m["serve.stage_sum_us_p50"] = percentile(sums, 50)
	if h := m["serve.handler_us_p50"]; h > 0 {
		m["serve.stage_closure"] = m["serve.stage_sum_us_p50"] / h
	}
	m["serve.json_decode_us_p50"] = percentile(durs["serve.json_decode"], 50)
	m["serve.json_encode_us_p50"] = percentile(durs["serve.json_encode"], 50)
	m["serve.json_bytes_in"] = mean(sizes["serve.json_decode"])
	m["serve.json_bytes_out"] = mean(sizes["serve.json_encode"])
	m["admission.acquire_us_p50"] = percentile(durs["admission.acquire"], 50)
	m["wire.decode_us_p50"] = percentile(durs["wire.decode"], 50)
	m["wire.encode_us_p50"] = percentile(durs["wire.encode"], 50)
	m["wire.bytes_in"] = mean(sizes["wire.decode"])
	m["wire.bytes_out"] = mean(sizes["wire.encode"])
	m["engine.key_us_p50"] = percentile(durs["engine.key"], 50)
	m["engine.index_us_p50"] = percentile(durs["engine.index"], 50)
	m["engine.estimate_us_p50"] = percentile(durs["engine.estimate"], 50)
	m["engine.estimate_us_p99"] = percentile(durs["engine.estimate"], 99)
	m["core.eval_us_p50"] = percentile(durs["core.eval"], 50)
	m["core.index_build_us_p50"] = percentile(durs["core.index_build"], 50)
	m["core.samples_per_req"] = mean(sizes["core.eval"])
	if n := sum(sizes["core.eval"]); n > 0 {
		m["core.eval_ns_per_sample"] = sum(durs["core.eval"]) * 1e3 / n
	}
	m["analysis.combine_us_p50"] = percentile(durs["analysis.combine"], 50)
	if roots := len(durs["engine.estimate"]); roots > 0 {
		m["analysis.sched_events_per_req"] = sum(sizes["analysis.combine"]) / float64(roots)
	}
	m["ingest.feed_us_per_interval"] = mean(durs["ingest.feed"])
	if d := sum(durs["ingest.feed"]); d > 0 {
		m["ingest.mb_per_s"] = sum(sizes["ingest.feed"]) / d // bytes per µs = MB/s
	}
	m["stream.push_us_p50"] = percentile(durs["stream.push"], 50)
	m["stream.estimate_us_p50"] = percentile(durs["stream.estimate"], 50)
	return m
}

// streamPath returns, per interval number, the start of the live feed
// handler that carried it and the replayed time of its feed, push,
// estimate and SSE encode stages.
func (t *tracer) streamPath() (handlerStart, stages map[int64]int64) {
	handlerStart, stages = map[int64]int64{}, map[int64]int64{}
	for _, s := range t.spans {
		switch {
		case s.kind == kindServeHandler:
			handlerStart[s.req] = s.start
		case s.parent >= 0 && t.spans[s.parent].kind == kindReplayStream:
			switch s.kind {
			case kindIngestFeed, kindStreamPush, kindStreamEstimate, kindJSONEncode:
				stages[s.req] += s.dur()
			}
		}
	}
	return handlerStart, stages
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// percentile is the nearest-rank percentile of vals (0 when empty).
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	k := int(p/100*float64(len(s))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func sum(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return sum(vals) / float64(len(vals))
}
