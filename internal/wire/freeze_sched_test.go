package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"spire/internal/core"
)

// This file pins the zero-sched freeze invariant: a frame carrying no
// scheduler events and no combined report must be byte-identical to the
// encoding that existed before either concept did. The frozen reference
// encoders below are verbatim copies of that earlier code; the
// differential suite runs thousands of randomized messages through both
// paths and fails on the first diverging byte. If a future change makes
// sched or combined sections leak into flat frames — a placeholder tag,
// an unconditional count, a reordered section — this suite is what
// catches it.

// frozenAppendEstimateRequest is the pre-sched request encoder, frozen.
// Its second u64 once carried a worker count; it is now the reserved
// slot, written as 0.
func frozenAppendEstimateRequest(dst []byte, req *EstimateRequest) []byte {
	dst, start := appendHeader(dst, MsgEstimateRequest)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(req.Top)))
	dst = binary.LittleEndian.AppendUint64(dst, 0)
	dst = appendSamples(dst, req.Samples)
	return finishFrame(dst, start)
}

// frozenAppendSampleBatch is the pre-sched batch encoder, frozen.
func frozenAppendSampleBatch(dst []byte, sb *SampleBatch) []byte {
	dst, start := appendHeader(dst, MsgSampleBatch)
	dst = appendF64(dst, sb.TS)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(sb.Window)))
	dst = appendSamples(dst, sb.Samples)
	return finishFrame(dst, start)
}

// frozenAppendEstimateResponse is the pre-combined response encoder,
// frozen: flat fields, then the optional hierarchy section, nothing else.
func frozenAppendEstimateResponse(dst []byte, res *EstimateResponse) []byte {
	dst, start := appendHeader(dst, MsgEstimateResponse)
	dst = appendString(dst, res.Model)
	est := res.Estimation
	if est == nil {
		dst = append(dst, 0)
		return finishFrame(dst, start)
	}
	dst = append(dst, 1)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(est.PerMetric)))
	for _, m := range est.PerMetric {
		dst = appendString(dst, m.Metric)
		dst = appendF64(dst, m.MeanEstimate)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(m.Samples)))
		dst = appendF64(dst, m.MeanIntensity)
	}
	dst = appendF64(dst, est.MaxThroughput)
	dst = appendF64(dst, est.MeasuredThroughput)
	cov := est.Coverage
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(cov.ModelMetrics)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(cov.DataMetrics)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(cov.Shared)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(cov.DataOnly)))
	for _, m := range cov.DataOnly {
		dst = appendString(dst, m)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(cov.ModelOnly)))
	for _, m := range cov.ModelOnly {
		dst = appendString(dst, m)
	}
	if h := est.Hierarchy; h != nil {
		dst = append(dst, 1)
		dst = appendString(dst, h.BindingLevel)
		dst = appendString(dst, h.BindingMetric)
		dst = appendF64(dst, h.BindingEstimate)
		dst = appendF64(dst, h.BoundThroughput)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(h.Levels)))
		for _, l := range h.Levels {
			dst = appendString(dst, l.Level)
			dst = appendString(dst, l.Metric)
			dst = appendF64(dst, l.MeanEstimate)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(l.Samples)))
			dst = appendF64(dst, l.MeanIntensity)
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(h.Surfaces)))
		for _, s := range h.Surfaces {
			dst = appendString(dst, s.Name)
			dst = appendString(dst, s.Param)
			dst = appendF64(dst, s.ParamValue)
			dst = appendF64(dst, s.Ceiling)
			if s.Binding {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	}
	return finishFrame(dst, start)
}

// Frozen JSON mirrors: the exact field-and-tag sets core's types carried
// before Sched/Combined existed. Marshalling a flat value through the
// live type and through its mirror must produce identical bytes — which
// is only true while the additive fields stay omitempty pointers/slices.

type frozenMetricEstimate struct {
	Metric        string  `json:"metric"`
	MeanEstimate  float64 `json:"meanEstimate"`
	Samples       int     `json:"samples"`
	MeanIntensity float64 `json:"meanIntensity"`
}

type frozenCoverage struct {
	ModelMetrics int      `json:"modelMetrics"`
	DataMetrics  int      `json:"dataMetrics"`
	Shared       int      `json:"shared"`
	DataOnly     []string `json:"dataOnly,omitempty"`
	ModelOnly    []string `json:"modelOnly,omitempty"`
}

type frozenLevelEstimate struct {
	Level         string  `json:"level"`
	Metric        string  `json:"metric"`
	MeanEstimate  float64 `json:"meanEstimate"`
	Samples       int     `json:"samples"`
	MeanIntensity float64 `json:"meanIntensity"`
}

type frozenSurfaceEstimate struct {
	Name       string  `json:"name,omitempty"`
	Param      string  `json:"param"`
	ParamValue float64 `json:"paramValue"`
	Ceiling    float64 `json:"ceiling"`
	Binding    bool    `json:"binding"`
}

type frozenHierarchy struct {
	BindingLevel    string                  `json:"bindingLevel"`
	BindingMetric   string                  `json:"bindingMetric"`
	BindingEstimate float64                 `json:"bindingEstimate"`
	BoundThroughput float64                 `json:"boundThroughput"`
	Levels          []frozenLevelEstimate   `json:"levels"`
	Surfaces        []frozenSurfaceEstimate `json:"surfaces,omitempty"`
}

type frozenEstimation struct {
	PerMetric          []frozenMetricEstimate `json:"perMetric"`
	MaxThroughput      float64                `json:"maxThroughput"`
	MeasuredThroughput float64                `json:"measuredThroughput"`
	Coverage           frozenCoverage         `json:"coverage"`
	Hierarchy          *frozenHierarchy       `json:"hierarchy,omitempty"`
}

func mirrorEstimation(est *core.Estimation) *frozenEstimation {
	f := &frozenEstimation{
		MaxThroughput:      est.MaxThroughput,
		MeasuredThroughput: est.MeasuredThroughput,
		Coverage: frozenCoverage{
			ModelMetrics: est.Coverage.ModelMetrics,
			DataMetrics:  est.Coverage.DataMetrics,
			Shared:       est.Coverage.Shared,
			DataOnly:     est.Coverage.DataOnly,
			ModelOnly:    est.Coverage.ModelOnly,
		},
	}
	for _, m := range est.PerMetric {
		f.PerMetric = append(f.PerMetric, frozenMetricEstimate(m))
	}
	if h := est.Hierarchy; h != nil {
		fh := &frozenHierarchy{
			BindingLevel:    h.BindingLevel,
			BindingMetric:   h.BindingMetric,
			BindingEstimate: h.BindingEstimate,
			BoundThroughput: h.BoundThroughput,
		}
		for _, l := range h.Levels {
			fh.Levels = append(fh.Levels, frozenLevelEstimate(l))
		}
		for _, s := range h.Surfaces {
			fh.Surfaces = append(fh.Surfaces, frozenSurfaceEstimate(s))
		}
		f.Hierarchy = fh
	}
	return f
}

// Randomized message generators. Deterministic seed: a failure
// reproduces exactly, and the suite is content-addressable across runs.

var freezeMetrics = []string{
	"cycles", "instructions", "l1d.miss", "l2.miss", "llc.miss",
	"branch.mispredict", "dram.bw", "tlb.walk", "uops.retired", "",
}

func randFreezeSamples(rng *rand.Rand) []core.Sample {
	n := rng.Intn(40)
	if n == 0 {
		return nil
	}
	out := make([]core.Sample, n)
	for i := range out {
		out[i] = core.Sample{
			Metric: freezeMetrics[rng.Intn(len(freezeMetrics))],
			T:      rng.NormFloat64() * 100,
			W:      rng.Float64() * 1e6,
			M:      float64(rng.Intn(1 << 20)),
			Window: rng.Intn(8) - 1,
		}
		if rng.Intn(16) == 0 {
			out[i].T = math.Inf(1)
		}
		if rng.Intn(16) == 0 {
			out[i].M = math.NaN()
		}
	}
	return out
}

func randFreezeEstimation(rng *rand.Rand) *core.Estimation {
	est := &core.Estimation{
		MaxThroughput:      rng.Float64() * 8,
		MeasuredThroughput: rng.Float64() * 8,
	}
	for i, n := 0, rng.Intn(8); i < n; i++ {
		est.PerMetric = append(est.PerMetric, core.MetricEstimate{
			Metric:        freezeMetrics[rng.Intn(len(freezeMetrics))],
			MeanEstimate:  rng.Float64() * 16,
			Samples:       rng.Intn(1000),
			MeanIntensity: rng.ExpFloat64(),
		})
	}
	est.Coverage = core.CoverageReport{
		ModelMetrics: rng.Intn(32),
		DataMetrics:  rng.Intn(32),
		Shared:       rng.Intn(32),
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		est.Coverage.DataOnly = append(est.Coverage.DataOnly, freezeMetrics[rng.Intn(len(freezeMetrics))])
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		est.Coverage.ModelOnly = append(est.Coverage.ModelOnly, freezeMetrics[rng.Intn(len(freezeMetrics))])
	}
	if rng.Intn(2) == 0 {
		h := &core.HierarchyEstimate{
			BindingLevel:    "L2",
			BindingMetric:   freezeMetrics[rng.Intn(len(freezeMetrics))],
			BindingEstimate: rng.Float64() * 4,
			BoundThroughput: rng.Float64() * 4,
		}
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			h.Levels = append(h.Levels, core.LevelEstimate{
				Level:         "L" + string(rune('1'+i)),
				Metric:        freezeMetrics[rng.Intn(len(freezeMetrics))],
				MeanEstimate:  rng.Float64() * 8,
				Samples:       rng.Intn(500),
				MeanIntensity: rng.ExpFloat64(),
			})
		}
		for i, n := 0, rng.Intn(3); i < n; i++ {
			h.Surfaces = append(h.Surfaces, core.SurfaceEstimate{
				Name:       "surf",
				Param:      freezeMetrics[rng.Intn(len(freezeMetrics))],
				ParamValue: rng.Float64(),
				Ceiling:    rng.Float64() * 8,
				Binding:    rng.Intn(2) == 0,
			})
		}
		est.Hierarchy = h
	}
	return est
}

func randFreezeSched(rng *rand.Rand) []core.SchedEvent {
	n := 1 + rng.Intn(6)
	out := make([]core.SchedEvent, n)
	for i := range out {
		out[i] = core.SchedEvent{
			Time:   rng.Float64() * 10,
			Class:  "sched.switch_in",
			Thread: rng.Intn(8),
			Hart:   rng.Intn(4),
			Waker:  -1,
			Window: -1,
		}
	}
	return out
}

// TestZeroSchedFreezeDifferential is the tentpole freeze suite: 2048
// randomized request/response/batch triples, each encoded by the live
// encoder and the frozen pre-sched reference, compared byte-for-byte.
// It runs under -race in `make verify` via the package race pass.
func TestZeroSchedFreezeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5f1e2e))
	const cases = 2048
	for i := 0; i < cases; i++ {
		// Requests: zero sched events must freeze. Both the nil slice and
		// the empty non-nil slice are "zero".
		top := rng.Intn(64) - 1
		rng.Intn(16) // once the worker count; still drawn so later draws are unchanged
		req := &EstimateRequest{Top: top, Samples: randFreezeSamples(rng)}
		if rng.Intn(2) == 0 {
			req.Sched = []core.SchedEvent{}
		}
		live := AppendEstimateRequest(nil, req)
		frozen := frozenAppendEstimateRequest(nil, req)
		if !bytes.Equal(live, frozen) {
			t.Fatalf("case %d: zero-sched request encoding drifted from frozen reference\n live: %x\nfrozen: %x", i, live, frozen)
		}
		dec, err := DecodeEstimateRequest(live)
		if err != nil {
			t.Fatalf("case %d: decode flat request: %v", i, err)
		}
		if dec.Sched != nil {
			t.Fatalf("case %d: flat request decoded with non-nil sched", i)
		}

		// Batches: same invariant on the stream feed path.
		sb := &SampleBatch{
			TS:      rng.Float64() * 1000,
			Window:  rng.Intn(8) - 1,
			Samples: randFreezeSamples(rng),
		}
		if rng.Intn(2) == 0 {
			sb.Sched = []core.SchedEvent{}
		}
		live = AppendSampleBatch(nil, sb)
		frozen = frozenAppendSampleBatch(nil, sb)
		if !bytes.Equal(live, frozen) {
			t.Fatalf("case %d: zero-sched batch encoding drifted from frozen reference", i)
		}
		if dec, err := DecodeSampleBatch(live); err != nil || dec.Sched != nil {
			t.Fatalf("case %d: flat batch decode: sched=%v err=%v", i, dec.Sched, err)
		}

		// Responses: an estimation without a combined report must freeze,
		// with and without a hierarchy section in front.
		res := &EstimateResponse{Model: "sha256:deadbeef"}
		if rng.Intn(8) != 0 {
			res.Estimation = randFreezeEstimation(rng)
		}
		live = AppendEstimateResponse(nil, res)
		frozen = frozenAppendEstimateResponse(nil, res)
		if !bytes.Equal(live, frozen) {
			t.Fatalf("case %d: no-combined response encoding drifted from frozen reference", i)
		}
		rdec, err := DecodeEstimateResponse(live)
		if err != nil {
			t.Fatalf("case %d: decode flat response: %v", i, err)
		}
		if rdec.Estimation != nil && rdec.Estimation.Combined != nil {
			t.Fatalf("case %d: flat response decoded with non-nil combined", i)
		}

		// The JSON tier freezes too: a flat estimation marshals to the
		// same bytes as its pre-sched mirror type.
		if res.Estimation != nil {
			liveJSON, err := json.Marshal(res.Estimation)
			if err != nil {
				t.Fatal(err)
			}
			frozenJSON, err := json.Marshal(mirrorEstimation(res.Estimation))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(liveJSON, frozenJSON) {
				t.Fatalf("case %d: flat estimation JSON drifted from frozen mirror\n live: %s\nfrozen: %s", i, liveJSON, frozenJSON)
			}
		}

		// Sanity on a sample of cases: a request that DOES carry sched
		// events must diverge from the frozen encoding (the section is
		// really there) and round-trip losslessly.
		if i%64 == 0 {
			req.Sched = randFreezeSched(rng)
			withSched := AppendEstimateRequest(nil, req)
			if bytes.Equal(withSched, frozenAppendEstimateRequest(nil, req)) {
				t.Fatalf("case %d: sched-bearing request encoded identically to flat frame", i)
			}
			back, err := DecodeEstimateRequest(withSched)
			if err != nil {
				t.Fatalf("case %d: decode sched request: %v", i, err)
			}
			if !reflect.DeepEqual(back.Sched, req.Sched) {
				t.Fatalf("case %d: sched events did not round-trip", i)
			}
		}
	}
}

// TestZeroSchedFreezeDataset pins the dataset JSON contract: a dataset
// whose Sched slice is empty serializes without a "sched" key at all.
func TestZeroSchedFreezeDataset(t *testing.T) {
	raw, err := json.Marshal(core.Dataset{Samples: []core.Sample{{Metric: "cycles", T: 1, W: 2, M: 3, Window: -1}}})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"sched"`)) {
		t.Fatalf("sched-free dataset JSON leaked a sched key: %s", raw)
	}
	if bytes.Contains(raw, []byte(`"combined"`)) {
		t.Fatalf("dataset JSON leaked a combined key: %s", raw)
	}
}
