package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"sync"

	"spire/internal/admission"
	"spire/internal/analysis"
	"spire/internal/core"
	"spire/internal/engine"
	"spire/internal/ingest"
	"spire/internal/serve"
	"spire/internal/stream"
	"spire/internal/wire"
)

// decodeBody decodes an estimate request the way the shard does: SPB1
// when bin, strict JSON otherwise.
func decodeBody(body []byte, bin bool) ([]core.Sample, []core.SchedEvent, error) {
	if bin {
		req, err := wire.DecodeEstimateRequest(body)
		if err != nil {
			return nil, nil, err
		}
		return req.Samples, req.Sched, nil
	}
	var req serve.EstimateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&req); err != nil {
		return nil, nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, nil, errors.New("trailing data after JSON body")
	}
	return req.Samples, req.Sched, nil
}

// encodeResponse renders a 200 estimate response body.
func encodeResponse(modelID string, est *core.Estimation, bin bool) ([]byte, error) {
	if bin {
		return wire.AppendEstimateResponse(nil, &wire.EstimateResponse{Model: modelID, Estimation: est}), nil
	}
	raw, err := json.Marshal(serve.EstimateResponse{Model: modelID, Estimation: est})
	return append(raw, '\n'), err
}

// reference computes the exact response bytes a shard should send for
// body, through the same public functions the shard calls.
func reference(eng *engine.Engine, d *deployment, body []byte, reqBin, respBin bool) ([]byte, error) {
	samples, sched, err := decodeBody(body, reqBin)
	if err != nil {
		return nil, err
	}
	ix := core.IndexWorkload(core.Dataset{Samples: samples})
	est, err := eng.EstimateIndexed(context.Background(), d.ens, ix, core.EstimateOptions{})
	if err != nil {
		return nil, err
	}
	if len(sched) > 0 {
		if est.Combined, err = analysis.Combine(est, sched); err != nil {
			return nil, err
		}
	}
	return encodeResponse(d.modelID, est, respBin)
}

// replayer re-runs sampled live requests stage by stage, right after
// their live exchange on the same client goroutine, so live and replayed
// stages see the same load and the same host. Each stage is one span
// under the request's ID. Its engine mirrors a shard's (same cache size,
// fed the replayed requests), so hits and misses match the live ones.
type replayer struct {
	t       *tracer
	d       *deployment
	eng     *engine.Engine
	adm     *admission.Controller
	routed  bool
	scratch [clientConns]core.Estimation

	mu  sync.Mutex
	err error // first replay failure
}

// replayEvery samples one measured request in this many for replay.
const replayEvery = 8

func newReplayer(t *tracer, d *deployment, routed bool) *replayer {
	return &replayer{
		t:      t,
		d:      d,
		eng:    engine.New(engine.Options{}),
		adm:    admission.New(admission.Config{}),
		routed: routed,
	}
}

// sample replays request id when it is sampled; g is the calling client
// goroutine.
func (rp *replayer) sample(g int, id int64, body []byte, bin bool) {
	if id%replayEvery != 0 {
		return
	}
	if err := rp.replay(id, body, bin, &rp.scratch[g]); err != nil {
		rp.mu.Lock()
		if rp.err == nil {
			rp.err = fmt.Errorf("replaying request %d: %w", id, err)
		}
		rp.mu.Unlock()
	}
}

// replay runs one request's router stages (when routed) and shard stages.
func (rp *replayer) replay(id int64, body []byte, bin bool, scratch *core.Estimation) error {
	t := rp.t
	reqBin := bin
	if rp.routed {
		root := t.open(kindReplayRouter, id)
		var req *wire.EstimateRequest
		var err error
		decodeKind := kindJSONDecode
		if bin {
			decodeKind = kindWireDecode
		}
		t.stage(decodeKind, root, id, int64(len(body)), func() {
			var samples []core.Sample
			var sched []core.SchedEvent
			samples, sched, err = decodeBody(body, bin)
			req = &wire.EstimateRequest{Samples: samples, Sched: sched}
		})
		if err != nil {
			return err
		}
		t.stage(kindEngineKey, root, id, int64(len(req.Samples)), func() { engine.WorkloadKey(req.Samples) })
		var up []byte
		t.stage(kindWireEncode, root, id, 0, func() { up = wire.AppendEstimateRequest(nil, req) })
		t.setN(root, int64(len(up)))
		t.closeSpan(root)
		body, reqBin = up, true
	}

	root := t.open(kindReplayServe, id)
	defer t.closeSpan(root)
	ctx := context.Background()
	t.stage(kindAdmission, root, id, 0, func() {
		if release, err := rp.adm.Acquire(ctx); err == nil {
			release()
		}
	})
	var samples []core.Sample
	var sched []core.SchedEvent
	var err error
	decodeKind := kindJSONDecode
	if reqBin {
		decodeKind = kindWireDecode
	}
	t.stage(decodeKind, root, id, int64(len(body)), func() { samples, sched, err = decodeBody(body, reqBin) })
	if err != nil {
		return err
	}
	n := int64(len(samples))
	t.stage(kindEngineKey, root, id, n, func() { engine.WorkloadKey(samples) })
	var ix *core.WorkloadIndex
	var hit bool
	t.stage(kindEngineIndex, root, id, n, func() { ix, hit = rp.eng.Index(samples) })
	if !hit {
		t.stage(kindIndexBuild, root, id, n, func() { core.IndexWorkload(core.Dataset{Samples: samples}) })
	}
	var est *core.Estimation
	t.stage(kindEngineEstimate, root, id, n, func() {
		est, err = rp.eng.EstimateIndexed(ctx, rp.d.ens, ix, core.EstimateOptions{})
	})
	if err != nil {
		return err
	}
	t.stage(kindCoreEval, root, id, int64(ix.Len()), func() {
		rp.d.ens.BatchEstimateInto(ctx, ix, core.EstimateOptions{Workers: 1}, scratch)
	})
	if len(sched) > 0 {
		t.stage(kindCombine, root, id, int64(len(sched)), func() {
			est.Combined, err = analysis.Combine(est, sched)
		})
		if err != nil {
			return err
		}
	}
	var out []byte
	encodeKind := kindJSONEncode
	if bin {
		encodeKind = kindWireEncode
	}
	start := t.now()
	out, err = encodeResponse(rp.d.modelID, est, bin)
	t.record(span{kind: encodeKind, parent: root, req: id, start: start, end: t.now(), n: int64(len(out))})
	return err
}

// replayStream re-runs the stream path for every fed interval through
// the same components stream.Pipeline and the hub use, one interval per
// replay root. It returns the window indexes for the allocation probe.
func replayStream(t *tracer, d *deployment, feeds int, csv func(k int, buf []byte) []byte) ([]*core.WorkloadIndex, error) {
	in := ingest.NewIncremental(ingest.Options{})
	win := stream.NewWindower(0)
	est := stream.NewEstimator(stream.Config{Model: stream.StaticModel(d.ens, d.modelID)}, stream.NewInstruments(nil))
	eng := engine.New(engine.Options{})
	ctx := context.Background()
	var scratch core.Estimation
	var ixs []*core.WorkloadIndex
	var buf []byte
	for k := 0; k < feeds; k++ {
		buf = csv(k, buf[:0])
		root := t.open(kindReplayStream, int64(k))
		var ivs []ingest.Interval
		var err error
		t.stage(kindIngestFeed, root, int64(k), int64(len(buf)), func() { ivs, err = in.Feed(buf) })
		if err != nil {
			return nil, err
		}
		for _, iv := range ivs {
			var w stream.Window
			t.stage(kindStreamPush, root, int64(k), int64(len(iv.Samples)), func() { w = win.Push(iv) })
			var res stream.Result
			t.stage(kindStreamEstimate, root, int64(k), int64(w.Samples), func() { res = est.Estimate(ctx, w) })
			t.stage(kindEngineEstimate, root, int64(k), int64(w.Samples), func() {
				eng.EstimateIndexed(ctx, d.ens, w.Index, core.EstimateOptions{})
			})
			t.stage(kindCoreEval, root, int64(k), int64(w.Index.Len()), func() {
				d.ens.BatchEstimateInto(ctx, w.Index, core.EstimateOptions{Workers: 1}, &scratch)
			})
			start := t.now()
			raw, err := json.Marshal(res)
			t.record(span{kind: kindJSONEncode, parent: root, req: int64(k), start: start, end: t.now(), n: int64(len(raw))})
			if err != nil {
				return nil, err
			}
			if len(ixs) < 64 {
				ixs = append(ixs, w.Index)
			}
		}
		t.closeSpan(root)
	}
	return ixs, nil
}

// allocsPerEstimate measures heap allocations per engine.EstimateIndexed
// call over ixs, on one goroutine after the load has stopped.
func allocsPerEstimate(d *deployment, ixs []*core.WorkloadIndex) float64 {
	if len(ixs) == 0 {
		return 0
	}
	eng := engine.New(engine.Options{})
	ctx := context.Background()
	const rounds = 20
	before := readUint(metricAllocObjects)
	for r := 0; r < rounds; r++ {
		for _, ix := range ixs {
			eng.EstimateIndexed(ctx, d.ens, ix, core.EstimateOptions{})
		}
	}
	return float64(readUint(metricAllocObjects)-before) / float64(rounds*len(ixs))
}

const (
	metricAllocBytes   = "/gc/heap/allocs:bytes"
	metricAllocObjects = "/gc/heap/allocs:objects"
	metricHeapLive     = "/gc/heap/live:bytes"
)

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
