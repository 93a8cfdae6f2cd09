package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// hierEnsemble builds a four-level bandwidth-roofline ensemble, optionally
// with surfaces.
func hierEnsemble(t *testing.T, surfaces ...Surface) *Ensemble {
	t.Helper()
	betas := map[string]float64{"L1": 64, "L2": 16, "L3": 8, "DRAM": 2}
	ens := &Ensemble{
		Rooflines: map[string]*Roofline{},
		WorkUnit:  "instructions",
		TimeUnit:  "cycles",
		Hierarchy: &HierarchyModel{Levels: DefaultHierarchyLevels(), Surfaces: surfaces},
	}
	for _, lv := range ens.Hierarchy.Levels {
		r, err := BandwidthRoofline(lv.Metric, 4, betas[lv.Level], 64)
		if err != nil {
			t.Fatal(err)
		}
		ens.Rooflines[lv.Metric] = r
	}
	return ens
}

// levelSamples builds one sample per hierarchy level with the given load
// counts over a fixed run.
func levelSamples(loads map[string]float64) Dataset {
	var d Dataset
	const cycles, insts = 1e6, 2e6
	for _, lv := range DefaultHierarchyLevels() {
		if n, ok := loads[lv.Level]; ok {
			d.Samples = append(d.Samples, Sample{Metric: lv.Metric, T: cycles, W: insts, M: n})
		}
	}
	return d
}

func TestBandwidthRoofline(t *testing.T) {
	r, err := BandwidthRoofline("m", 4, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Ridge at I = peak*line/beta = 16; diagonal below, flat above.
	cases := []struct{ i, want float64 }{
		{0, 0}, {4, 1}, {16, 4}, {100, 4},
	}
	for _, c := range cases {
		if got := r.Eval(c.i); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Eval(%g) = %g, want %g", c.i, got, c.want)
		}
	}
	for _, bad := range []struct{ peak, beta, line float64 }{
		{0, 16, 64}, {-1, 16, 64}, {math.NaN(), 16, 64}, {math.Inf(1), 16, 64},
		{4, 0, 64}, {4, math.NaN(), 64}, {4, 16, 0}, {4, 16, math.Inf(1)},
	} {
		if _, err := BandwidthRoofline("m", bad.peak, bad.beta, bad.line); err == nil {
			t.Errorf("peak=%g beta=%g line=%g: want error", bad.peak, bad.beta, bad.line)
		}
	}
}

func TestHierarchyModelValidate(t *testing.T) {
	lv := DefaultHierarchyLevels()
	ok := HierarchyModel{Levels: lv, Surfaces: []Surface{
		{Name: "s", Param: "p", Points: []SurfacePoint{{0, 4}, {1, 1}}},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	bad := []HierarchyModel{
		{},
		{Levels: []HierarchyLevel{{Level: "", Metric: "m"}}},
		{Levels: []HierarchyLevel{{Level: "L1", Metric: ""}}},
		{Levels: []HierarchyLevel{{Level: "L1", Metric: "a"}, {Level: "L1", Metric: "b"}}},
		{Levels: []HierarchyLevel{{Level: "L1", Metric: "a"}, {Level: "L2", Metric: "a"}}},
		{Levels: lv, Surfaces: []Surface{{Param: ""}}},
		{Levels: lv, Surfaces: []Surface{{Param: "p"}}},
		{Levels: lv, Surfaces: []Surface{{Param: "p", Points: []SurfacePoint{{0, 1}}}, {Param: "p", Points: []SurfacePoint{{0, 1}}}}},
		{Levels: lv, Surfaces: []Surface{{Param: "p", Points: []SurfacePoint{{math.NaN(), 1}}}}},
		{Levels: lv, Surfaces: []Surface{{Param: "p", Points: []SurfacePoint{{0, math.Inf(1)}}}}},
		{Levels: lv, Surfaces: []Surface{{Param: "p", Points: []SurfacePoint{{0, -1}}}}},
		{Levels: lv, Surfaces: []Surface{{Param: "p", Points: []SurfacePoint{{1, 1}, {0, 1}}}}},
	}
	for k, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted: %+v", k, m)
		}
	}
}

func TestHierarchyBindingLevel(t *testing.T) {
	ens := hierEnsemble(t)
	cases := []struct {
		loads map[string]float64
		want  string
	}{
		// Dominant traffic at one level drags its estimate down.
		{map[string]float64{"L1": 1e6, "L2": 100, "L3": 100, "DRAM": 100}, "L1"},
		{map[string]float64{"L1": 1000, "L2": 4e5, "L3": 100, "DRAM": 100}, "L2"},
		{map[string]float64{"L1": 1000, "L2": 1000, "L3": 3e5, "DRAM": 100}, "L3"},
		{map[string]float64{"L1": 1000, "L2": 1000, "L3": 1000, "DRAM": 1e5}, "DRAM"},
		// Negligible traffic everywhere: every level clamps to the peak,
		// and the tie resolves to the fastest level.
		{map[string]float64{"L1": 1, "L2": 1, "L3": 1, "DRAM": 1}, "L1"},
	}
	for _, c := range cases {
		est, err := estimate(ens, levelSamples(c.loads))
		if err != nil {
			t.Fatal(err)
		}
		if est.Hierarchy == nil {
			t.Fatalf("loads %v: no hierarchy estimate", c.loads)
		}
		h := est.Hierarchy
		if h.BindingLevel != c.want {
			t.Errorf("loads %v: binding %s, want %s", c.loads, h.BindingLevel, c.want)
		}
		if len(h.Levels) != 4 {
			t.Errorf("loads %v: %d level estimates", c.loads, len(h.Levels))
		}
		// The binding estimate is the minimum across reported levels and
		// matches the flat per-metric estimate for the binding metric.
		for _, le := range h.Levels {
			if le.MeanEstimate < h.BindingEstimate {
				t.Errorf("level %s estimate %g below binding %g", le.Level, le.MeanEstimate, h.BindingEstimate)
			}
			k := findPerMetric(est.PerMetric, le.Metric)
			if k < 0 || est.PerMetric[k].MeanEstimate != le.MeanEstimate {
				t.Errorf("level %s estimate diverges from flat ranking", le.Level)
			}
		}
		if h.BoundThroughput != est.MaxThroughput {
			t.Errorf("no surfaces: bound %g should equal flat max %g", h.BoundThroughput, est.MaxThroughput)
		}
	}
}

func TestHierarchySurfaces(t *testing.T) {
	surf := Surface{
		Name:  "sparsity",
		Param: "br_misp_retired.all_branches",
		Points: []SurfacePoint{
			{Param: 0, Ceiling: 4},
			{Param: 0.1, Ceiling: 1},
		},
	}
	ens := hierEnsemble(t, surf)

	// Workload with two lightly-loaded hierarchy levels (flat estimate at
	// the peak) and a mispredict rate of 0.05 events per instruction: the
	// surface interpolates to 2.5, below the flat roof, so it binds.
	d := levelSamples(map[string]float64{"L1": 1e5, "L2": 100})
	d.Samples = append(d.Samples, Sample{
		Metric: surf.Param, T: 1e6, W: 2e6, M: 1e5, // M/W = 0.05
	})
	est, err := estimate(ens, d)
	if err != nil {
		t.Fatal(err)
	}
	h := est.Hierarchy
	if h == nil || len(h.Surfaces) != 1 {
		t.Fatalf("hierarchy %+v", h)
	}
	se := h.Surfaces[0]
	if se.Name != "sparsity" || se.Param != surf.Param {
		t.Errorf("surface identity %+v", se)
	}
	if math.Abs(se.ParamValue-0.05) > 1e-9 {
		t.Errorf("recovered param %g, want 0.05", se.ParamValue)
	}
	if math.Abs(se.Ceiling-2.5) > 1e-9 {
		t.Errorf("ceiling %g, want 2.5", se.Ceiling)
	}
	if !se.Binding {
		t.Error("ceiling below the flat max should be binding")
	}
	if math.Abs(h.BoundThroughput-2.5) > 1e-9 {
		t.Errorf("bound %g, want 2.5", h.BoundThroughput)
	}
	// Flat fields are untouched by the surface.
	if est.MaxThroughput <= h.BoundThroughput-1e-12 {
		t.Errorf("flat max %g should sit above the surface bound", est.MaxThroughput)
	}

	// Without the param metric the surface is skipped entirely.
	est2, err := estimate(ens, levelSamples(map[string]float64{"L1": 1e5, "L2": 100}))
	if err != nil {
		t.Fatal(err)
	}
	if est2.Hierarchy == nil || len(est2.Hierarchy.Surfaces) != 0 {
		t.Fatalf("missing param metric: surfaces %+v", est2.Hierarchy)
	}
	if est2.Hierarchy.BoundThroughput != est2.MaxThroughput {
		t.Error("no evaluated surfaces: bound should equal flat max")
	}
}

// TestHierarchyDegenerateIsFlat: a workload measuring fewer than two
// hierarchy levels reports no hierarchy at all, and its JSON output is
// byte-identical to the same model without a hierarchy.
func TestHierarchyDegenerateIsFlat(t *testing.T) {
	hier := hierEnsemble(t)
	flat := hierEnsemble(t)
	flat.Hierarchy = nil

	single := levelSamples(map[string]float64{"L2": 5e5})
	hEst, err := estimate(hier, single)
	if err != nil {
		t.Fatal(err)
	}
	if hEst.Hierarchy != nil {
		t.Fatalf("single-level workload grew a hierarchy: %+v", hEst.Hierarchy)
	}
	fEst, err := estimate(flat, single)
	if err != nil {
		t.Fatal(err)
	}
	hj, err := json.Marshal(hEst)
	if err != nil {
		t.Fatal(err)
	}
	fj, err := json.Marshal(fEst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hj, fj) {
		t.Errorf("degenerate JSON diverged:\n hier: %s\n flat: %s", hj, fj)
	}
}

// TestHierarchyEstimationReuse: BatchEstimateInto reuses the hierarchy
// allocation across calls and resets it on degenerate workloads.
func TestHierarchyEstimationReuse(t *testing.T) {
	surf := Surface{Param: "p", Points: []SurfacePoint{{0, 4}, {1, 1}}}
	ens := hierEnsemble(t, surf)
	ctx := context.Background()

	multi := levelSamples(map[string]float64{"L1": 1e6, "L2": 4e5, "L3": 100, "DRAM": 100})
	multi.Samples = append(multi.Samples, Sample{Metric: "p", T: 1e6, W: 2e6, M: 1e5})
	ixMulti := IndexWorkload(multi)
	ixSingle := IndexWorkload(levelSamples(map[string]float64{"L1": 1e6}))

	var est Estimation
	if err := ens.BatchEstimateInto(ctx, ixMulti, EstimateOptions{}, &est); err != nil {
		t.Fatal(err)
	}
	if est.Hierarchy == nil || est.Hierarchy.BindingLevel != "L2" {
		t.Fatalf("hierarchy %+v", est.Hierarchy)
	}
	first := est.Hierarchy

	if err := ens.BatchEstimateInto(ctx, ixSingle, EstimateOptions{}, &est); err != nil {
		t.Fatal(err)
	}
	if est.Hierarchy != nil {
		t.Fatalf("degenerate workload kept a hierarchy: %+v", est.Hierarchy)
	}

	if err := ens.BatchEstimateInto(ctx, ixMulti, EstimateOptions{}, &est); err != nil {
		t.Fatal(err)
	}
	if est.Hierarchy == nil || est.Hierarchy.BindingLevel != "L2" || len(est.Hierarchy.Surfaces) != 1 {
		t.Fatalf("hierarchy after reuse %+v", est.Hierarchy)
	}
	_ = first

	// Steady state on a stable workload allocates nothing. The race
	// detector's instrumentation allocates on its own, so the count is
	// only meaningful in uninstrumented builds.
	if raceEnabled {
		t.Skip("alloc counting is unreliable under the race detector")
	}
	if err := ens.BatchEstimateInto(ctx, ixMulti, EstimateOptions{}, &est); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := ens.BatchEstimateInto(ctx, ixMulti, EstimateOptions{}, &est); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state hierarchical estimation allocates %.1f/op", allocs)
	}
}

func TestHierarchyEncodeRoundTrip(t *testing.T) {
	surf := Surface{Name: "sparsity", Param: "p", Points: []SurfacePoint{{0, 4}, {0.5, 1}}}
	ens := hierEnsemble(t, surf)
	d := levelSamples(map[string]float64{"L1": 1e6, "L2": 4e5})
	d.Samples = append(d.Samples, Sample{Metric: "p", T: 1e6, W: 2e6, M: 1e5})
	est, err := estimate(ens, d)
	if err != nil {
		t.Fatal(err)
	}
	if est.Hierarchy == nil {
		t.Fatal("no hierarchy")
	}
	buf, err := json.Marshal(est)
	if err != nil {
		t.Fatal(err)
	}
	var back Estimation
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(est.Hierarchy, back.Hierarchy) {
		t.Errorf("hierarchy round trip:\n in:  %+v\n out: %+v", est.Hierarchy, back.Hierarchy)
	}
	// The ensemble itself round-trips its hierarchy too.
	ebuf, err := json.Marshal(ens)
	if err != nil {
		t.Fatal(err)
	}
	var ensBack Ensemble
	if err := json.Unmarshal(ebuf, &ensBack); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ens.Hierarchy, ensBack.Hierarchy) {
		t.Errorf("ensemble hierarchy round trip:\n in:  %+v\n out: %+v", ens.Hierarchy, ensBack.Hierarchy)
	}
	if err := ensBack.CheckInvariants(); err != nil {
		t.Errorf("round-tripped ensemble fails invariants: %v", err)
	}

	// A hostile hierarchy fails the ensemble invariant gate.
	bad := hierEnsemble(t)
	bad.Hierarchy.Levels[1].Level = bad.Hierarchy.Levels[0].Level
	if err := bad.CheckInvariants(); err == nil {
		t.Error("duplicate hierarchy level passed CheckInvariants")
	}
}

func TestSurfaceParamRecovery(t *testing.T) {
	// Two samples with different rates: time-weighted average.
	var d Dataset
	d.Samples = append(d.Samples,
		Sample{Metric: "p", T: 1, W: 100, M: 10}, // rate 0.1, weight 1
		Sample{Metric: "p", T: 3, W: 100, M: 2},  // rate 0.02, weight 3
	)
	ix := IndexWorkload(d)
	im := ix.groups["p"]
	if im == nil {
		t.Fatal("no indexed group")
	}
	got := surfaceParam(im)
	want := (1*0.1 + 3*0.02) / 4
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("param %g, want %g", got, want)
	}

	// Never-firing samples (M=0, intensity +Inf) contribute rate zero.
	var z Dataset
	z.Samples = append(z.Samples, Sample{Metric: "p", T: 1, W: 100, M: 0})
	izx := IndexWorkload(z)
	if got := surfaceParam(izx.groups["p"]); got != 0 {
		t.Errorf("never-firing param %g, want 0", got)
	}
}
