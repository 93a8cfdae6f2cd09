package core

// Fuzzers for the hierarchy extension. FuzzHierarchyEval throws hostile
// hierarchies (duplicate/empty levels, unmodeled metrics) and hostile
// workloads (raw float bit patterns: NaN, infinities, denormals) at the
// estimation path and re-derives every reported invariant from scratch.
// FuzzSurfaceParams does the same for parameterized surfaces: hostile
// breakpoint orderings, crossing ceilings, duplicate abscissae, and
// degenerate parameter recoveries.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
)

// fuzzReader walks raw bytes, yielding values for model construction.
type fuzzReader struct {
	raw []byte
	i   int
}

func (r *fuzzReader) byte() byte {
	if r.i >= len(r.raw) {
		return 0
	}
	b := r.raw[r.i]
	r.i++
	return b
}

// float yields a hostile float64: raw bit patterns produce NaNs,
// infinities and denormals for free; short tails degrade to small ints.
func (r *fuzzReader) float() float64 {
	if r.i+8 <= len(r.raw) {
		v := math.Float64frombits(binary.LittleEndian.Uint64(r.raw[r.i:]))
		r.i += 8
		return v
	}
	return float64(r.byte())
}

var fuzzLevelNames = []string{"L1", "L2", "L3", "DRAM", "", "L1"}
var fuzzLevelMetrics = []string{"lvl.a", "lvl.b", "lvl.c", "lvl.d", "unmodeled.event", "lvl.a"}

// fuzzHierarchy decodes a (possibly structurally invalid) hierarchy.
func fuzzHierarchy(r *fuzzReader) *HierarchyModel {
	h := &HierarchyModel{}
	nLevels := int(r.byte()) % 6
	for i := 0; i < nLevels; i++ {
		h.Levels = append(h.Levels, HierarchyLevel{
			Level:  fuzzLevelNames[int(r.byte())%len(fuzzLevelNames)],
			Metric: fuzzLevelMetrics[int(r.byte())%len(fuzzLevelMetrics)],
		})
	}
	nSurf := int(r.byte()) % 3
	for i := 0; i < nSurf; i++ {
		s := Surface{Param: []string{"param.p", "lvl.a", "param.p"}[int(r.byte())%3]}
		nPts := int(r.byte()) % 4
		for j := 0; j < nPts; j++ {
			s.Points = append(s.Points, SurfacePoint{Param: r.float(), Ceiling: r.float()})
		}
		h.Surfaces = append(h.Surfaces, s)
	}
	return h
}

// fuzzWorkload decodes a workload whose values are hostile floats.
func fuzzWorkload(r *fuzzReader) Dataset {
	pool := append(append([]string(nil), fuzzLevelMetrics...), "param.p")
	var d Dataset
	n := int(r.byte()) % 12
	for i := 0; i < n; i++ {
		d.Add(Sample{
			Metric: pool[int(r.byte())%len(pool)],
			T:      r.float(),
			W:      r.float(),
			M:      r.float(),
		})
	}
	return d
}

// fuzzFlatEnsemble trains a flat model over the level metrics from
// byte-derived (but well-formed) samples; nil if the fitter rejects it.
func fuzzFlatEnsemble(r *fuzzReader) *Ensemble {
	var d Dataset
	n := 4 + int(r.byte())%12
	for i := 0; i < n; i++ {
		d.Add(Sample{
			Metric: fuzzLevelMetrics[i%4],
			T:      1 + float64(r.byte()%8),
			W:      float64(r.byte()) * 1.5,
			M:      float64(r.byte()) / 3,
		})
	}
	ens, err := Train(d, TrainOptions{})
	if err != nil {
		return nil
	}
	return ens
}

// FuzzHierarchyEval: hostile hierarchies and workloads must never panic,
// never perturb the flat estimation fields, honor the degenerate rule,
// and report a binding level and refined bound that re-derive exactly
// from the per-level rows.
func FuzzHierarchyEval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 1, 1, 2, 2, 0, 4, 10, 20, 3, 1, 30, 2, 2, 8, 15, 1, 3, 9, 40, 2})
	// NaN workload values: a quiet-NaN bit pattern inside the sample region.
	f.Add(append([]byte{0, 0, 2, 4, 10, 2, 1, 20, 1, 2, 5, 3, 0, 3, 0},
		0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0x40))
	// Duplicate levels and an unmodeled metric.
	f.Add([]byte{4, 0, 0, 0, 0, 1, 4, 2, 2, 0, 6, 10, 2, 1, 20, 1, 2, 5, 3, 1, 30, 1, 4, 2, 2, 5, 1, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		r := &fuzzReader{raw: raw}
		flat := fuzzFlatEnsemble(r)
		if flat == nil {
			return
		}
		h := fuzzHierarchy(r)
		hier := &Ensemble{
			Rooflines: flat.Rooflines,
			WorkUnit:  flat.WorkUnit,
			TimeUnit:  flat.TimeUnit,
			Hierarchy: h,
		}
		w := fuzzWorkload(r)
		r.byte() // once the worker count; still consumed so corpus entries decode as before

		wantEst, wantErr := flat.Estimate(w)
		gotEst, gotErr := hier.Estimate(w)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch: hier %v, flat %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}

		// The flat fields are untouched: strip the hierarchy and compare
		// bytes against the flat model's estimation.
		stripped := *gotEst
		stripped.Hierarchy = nil
		gb, _ := json.Marshal(&stripped)
		wb, _ := json.Marshal(wantEst)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("hierarchy perturbed flat fields:\nhier: %s\nflat: %s", gb, wb)
		}

		// The batch path agrees with the scalar path byte for byte.
		var batch Estimation
		if err := hier.BatchEstimateInto(context.Background(), IndexWorkload(w),
			EstimateOptions{}, &batch); err != nil {
			t.Fatalf("batch errored where scalar succeeded: %v", err)
		}
		bb, _ := json.Marshal(&batch)
		sb, _ := json.Marshal(gotEst)
		if !bytes.Equal(bb, sb) {
			t.Fatalf("batch diverged:\nbatch:  %s\nscalar: %s", bb, sb)
		}

		// Degenerate rule: a hierarchy appears iff >= 2 level rows matched
		// the ranking (duplicate level entries count twice, as the
		// implementation defines).
		found := 0
		for _, lv := range h.Levels {
			if findPerMetric(gotEst.PerMetric, lv.Metric) >= 0 {
				found++
			}
		}
		he := gotEst.Hierarchy
		if (found >= 2) != (he != nil) {
			t.Fatalf("degenerate rule violated: %d level rows matched, hierarchy=%v", found, he != nil)
		}
		if he == nil {
			return
		}

		// Binding re-derivation: strict less-than over the reported rows,
		// first-row fallback when nothing compares below +Inf — or when
		// the winner carries an empty level name (only reachable through
		// hierarchies that fail Validate; estimation tolerates them).
		bits := math.Float64bits
		bind := -1
		bindEst := math.Inf(1)
		for i, lv := range he.Levels {
			if lv.MeanEstimate < bindEst {
				bindEst = lv.MeanEstimate
				bind = i
			}
		}
		if bind < 0 || he.Levels[bind].Level == "" {
			bind = 0
			bindEst = he.Levels[0].MeanEstimate
		}
		if he.BindingLevel != he.Levels[bind].Level || he.BindingMetric != he.Levels[bind].Metric ||
			bits(he.BindingEstimate) != bits(bindEst) {
			t.Fatalf("binding re-derivation: got (%s, %s, %v), want row %d of %+v",
				he.BindingLevel, he.BindingMetric, he.BindingEstimate, bind, he.Levels)
		}

		// Bound re-derivation: MaxThroughput clipped by every reported
		// surface ceiling that compares below it (NaN never does).
		bound := gotEst.MaxThroughput
		for _, s := range he.Surfaces {
			if s.Ceiling < bound {
				bound = s.Ceiling
			}
		}
		if bits(he.BoundThroughput) != bits(bound) {
			t.Fatalf("bound re-derivation: got %v, want %v", he.BoundThroughput, bound)
		}
	})
}

// FuzzSurfaceParams: hostile surface shapes must never panic validation
// or estimation; surfaces that pass validation must evaluate inside
// their own ceiling envelope, propagate NaN parameters as NaN ceilings,
// and survive a model save/load byte-identically.
func FuzzSurfaceParams(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 3, 10, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 20, 3, 2, 1, 5, 9, 2})
	// Duplicate breakpoints at the same abscissa with crossing ceilings.
	f.Add(append([]byte{1, 0, 2},
		0, 0, 0, 0, 0, 0, 0xe0, 0x3f, 0, 0, 0, 0, 0, 0, 0x10, 0x40, // (0.5, 4)
		0, 0, 0, 0, 0, 0, 0xe0, 0x3f, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, // (0.5, 1)
		3, 2, 1, 5))
	// Descending params (invalid) and a NaN ceiling.
	f.Add(append([]byte{2, 0, 2,
		0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0x40,
		0, 0, 0, 0, 0, 0, 0xe0, 0x3f, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f,
		2, 1},
		1, 0, 0, 0, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, raw []byte) {
		r := &fuzzReader{raw: raw}
		h := &HierarchyModel{Levels: []HierarchyLevel{
			{Level: "L1", Metric: "lvl.a"},
			{Level: "L2", Metric: "lvl.b"},
		}}
		nSurf := 1 + int(r.byte())%2
		for i := 0; i < nSurf; i++ {
			s := Surface{Param: []string{"param.p", "param.q"}[i]}
			if r.byte()%4 == 0 {
				s.Param = "param.p" // hostile: duplicate param metric
			}
			nPts := int(r.byte()) % 5
			for j := 0; j < nPts; j++ {
				s.Points = append(s.Points, SurfacePoint{Param: r.float(), Ceiling: r.float()})
			}
			h.Surfaces = append(h.Surfaces, s)
		}
		valid := h.Validate() == nil

		ens := &Ensemble{
			Rooflines: map[string]*Roofline{},
			WorkUnit:  "instructions",
			TimeUnit:  "cycles",
			Hierarchy: h,
		}
		for metric, beta := range map[string]float64{"lvl.a": 64, "lvl.b": 16} {
			rl, err := BandwidthRoofline(metric, 4, beta, 64)
			if err != nil {
				t.Fatal(err)
			}
			ens.Rooflines[metric] = rl
		}

		// Both level metrics carry traffic so the hierarchy attaches; the
		// param samples are hostile.
		d := Dataset{}
		d.Add(
			Sample{Metric: "lvl.a", T: 1e6, W: 2e6, M: 1000},
			Sample{Metric: "lvl.b", T: 1e6, W: 2e6, M: 4e5},
		)
		nParam := int(r.byte()) % 4
		for i := 0; i < nParam; i++ {
			d.Add(Sample{
				Metric: []string{"param.p", "param.q"}[int(r.byte())%2],
				T:      r.float(),
				W:      r.float(),
				M:      r.float(),
			})
		}

		est, err := ens.Estimate(d)
		if err != nil {
			t.Fatalf("estimate errored: %v", err)
		}
		he := est.Hierarchy
		if he == nil {
			t.Fatal("two measured levels but no hierarchy attached")
		}
		for _, se := range he.Surfaces {
			var src *Surface
			for i := range h.Surfaces {
				if h.Surfaces[i].Param == se.Param {
					src = &h.Surfaces[i]
					break
				}
			}
			if src == nil {
				t.Fatalf("surface estimate for unknown param %q", se.Param)
			}
			if !valid {
				continue
			}
			if math.IsNaN(se.ParamValue) {
				if !math.IsNaN(se.Ceiling) {
					t.Fatalf("NaN parameter produced ceiling %v", se.Ceiling)
				}
				continue
			}
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, p := range src.Points {
				lo = math.Min(lo, p.Ceiling)
				hi = math.Max(hi, p.Ceiling)
			}
			if math.IsNaN(se.Ceiling) || se.Ceiling < lo-1e-9 || se.Ceiling > hi+1e-9 {
				t.Fatalf("ceiling %v escapes surface envelope [%v, %v] at param %v",
					se.Ceiling, lo, hi, se.ParamValue)
			}
		}

		// A structurally valid model survives save/load with its surfaces
		// intact and estimates byte-identically afterwards.
		if !valid {
			return
		}
		var buf bytes.Buffer
		if err := ens.Save(&buf); err != nil {
			t.Fatalf("valid hierarchy failed to save: %v", err)
		}
		back, err := LoadEnsemble(&buf)
		if err != nil {
			t.Fatalf("valid hierarchy failed to load: %v", err)
		}
		if back.Hierarchy == nil || len(back.Hierarchy.Surfaces) != len(h.Surfaces) {
			t.Fatalf("surfaces lost in round trip: %+v", back.Hierarchy)
		}
		est2, err := back.Estimate(d)
		if err != nil {
			t.Fatal(err)
		}
		b1, _ := json.Marshal(est)
		b2, _ := json.Marshal(est2)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("reloaded model estimates differently:\nbefore: %s\nafter:  %s", b1, b2)
		}
	})
}
