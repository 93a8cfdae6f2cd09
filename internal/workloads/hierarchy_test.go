package workloads

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"spire/internal/calibrate"
	"spire/internal/core"
	"spire/internal/engine"
	"spire/internal/pmu"
	"spire/internal/sim"
	"spire/internal/tma"
	"spire/internal/uarch"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// hierModel caches the calibrated hierarchical model (machine discovery
// plus both surface sweeps) across tests.
var hierModel = struct {
	once sync.Once
	ens  *core.Ensemble
	err  error
}{}

func hierarchyModel(t *testing.T) *core.Ensemble {
	t.Helper()
	hierModel.once.Do(func() {
		cfg := uarch.Default()
		hm, err := calibrate.DiscoverHierarchy(cfg, calibrate.Options{})
		if err != nil {
			hierModel.err = err
			return
		}
		sp, err := calibrate.SweepSparsity(cfg, calibrate.Options{})
		if err != nil {
			hierModel.err = err
			return
		}
		vw, err := calibrate.SweepVecWidthMix(cfg, calibrate.Options{})
		if err != nil {
			hierModel.err = err
			return
		}
		hierModel.ens, hierModel.err = hm.Model(sp, vw)
	})
	if hierModel.err != nil {
		t.Fatal(hierModel.err)
	}
	return hierModel.ens
}

// paramEvents maps surface parameter metrics to their oracle counter.
var paramEvents = map[string]pmu.EventID{
	"br_misp_retired.all_branches":      pmu.EvBrMispRetired,
	"uops_issued.vector_width_mismatch": pmu.EvVecWidthMismatch,
}

var levelEvents = map[string]pmu.EventID{
	"mem_load_retired.l1_hit":  pmu.EvLoadL1Hit,
	"mem_load_retired.l2_hit":  pmu.EvLoadL2Hit,
	"mem_load_retired.l3_hit":  pmu.EvLoadL3Hit,
	"mem_load_retired.l3_miss": pmu.EvLoadL3Miss,
}

// runHierarchySpec executes one roster kernel on the default core and
// builds its estimation dataset from the oracle counters: one sample per
// hierarchy-level traffic metric plus the surface parameter metric.
func runHierarchySpec(t *testing.T, ens *core.Ensemble, hs HierarchySpec) (core.Dataset, pmu.Counts) {
	t.Helper()
	prog := hs.Build(1)
	s, err := sim.New(uarch.Default(), prog, 42)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(1 << 32)
	if !res.Drained {
		t.Fatalf("%s did not drain", hs.Name)
	}
	cycles := float64(res.Cycles)
	insts := float64(res.Instructions)

	var data core.Dataset
	for _, lv := range ens.Hierarchy.Levels {
		data.Samples = append(data.Samples, core.Sample{
			Metric: lv.Metric, T: cycles, W: insts,
			M: float64(res.Counts.Read(levelEvents[lv.Metric])),
		})
	}
	for metric, ev := range paramEvents {
		data.Samples = append(data.Samples, core.Sample{
			Metric: metric, T: cycles, W: insts,
			M: float64(res.Counts.Read(ev)),
		})
	}
	return data, res.Counts
}

// hierarchyVerdict is one golden-file row.
type hierarchyVerdict struct {
	Name           string  `json:"name"`
	BindingLevel   string  `json:"binding_level"`
	TMALevel       string  `json:"tma_level"`
	TMAAgree       bool    `json:"tma_agree"`
	TMAVacuous     bool    `json:"tma_vacuous"`
	BindingSurface string  `json:"binding_surface,omitempty"`
	MemoryBound    float64 `json:"-"`
}

// TestHierarchyGolden is the per-kernel regression: every roster kernel
// must bind at its engineered level, the TMA cross-check must agree, and
// the full verdict set must match the checked-in golden file
// (regenerate with -update).
func TestHierarchyGolden(t *testing.T) {
	ens := hierarchyModel(t)
	var got []hierarchyVerdict

	for _, hs := range Hierarchy() {
		data, counts := runHierarchySpec(t, ens, hs)
		est, err := engine.Default().Estimate(context.Background(), ens, data)
		if err != nil {
			t.Fatalf("%s: %v", hs.Name, err)
		}
		if est.Hierarchy == nil {
			t.Fatalf("%s: no hierarchy estimate", hs.Name)
		}
		if got := est.Hierarchy.BindingLevel; got != hs.ExpectedLevel {
			t.Errorf("%s: binding level %s, engineered for %s", hs.Name, got, hs.ExpectedLevel)
		}
		v, err := tma.CrossCheck(est.Hierarchy, counts, uarch.Default().IssueWidth)
		if err != nil {
			t.Fatalf("%s: cross-check: %v", hs.Name, err)
		}
		if !v.Agree {
			t.Errorf("%s: TMA disagrees: spire %s (share %.2f) vs tma %s (share %.2f)",
				hs.Name, v.SpireLevel, v.SpireShare, v.TMALevel, v.TMAShare)
		}

		row := hierarchyVerdict{
			Name: hs.Name, BindingLevel: est.Hierarchy.BindingLevel,
			TMALevel: v.TMALevel, TMAAgree: v.Agree, TMAVacuous: v.Vacuous,
		}
		// A surface kernel must surface its own parameter as binding:
		// the parameterized ceiling sits below the flat roof.
		for _, se := range est.Hierarchy.Surfaces {
			if se.Binding && se.Name == hs.Param {
				row.BindingSurface = se.Name
			}
		}
		if hs.Param != "" && row.BindingSurface != hs.Param {
			t.Errorf("%s: surface %q not binding (surfaces: %+v)", hs.Name, hs.Param, est.Hierarchy.Surfaces)
		}
		got = append(got, row)
	}

	path := filepath.Join("testdata", "hierarchy_golden.json")
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	var want []hierarchyVerdict
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("verdicts drifted from golden file (regenerate with -update)\n got: %+v\nwant: %+v", got, want)
	}
}

// TestHierarchyRoster pins the roster's shape and that every kernel
// passes its own validation.
func TestHierarchyRoster(t *testing.T) {
	specs := Hierarchy()
	if len(specs) != 7 {
		t.Fatalf("roster has %d kernels, want 7", len(specs))
	}
	levels := map[string]int{}
	params := map[string]int{}
	for _, hs := range specs {
		k := hs.Spec.Kernel()
		if err := k.Validate(); err != nil {
			t.Errorf("%s: %v", hs.Name, err)
		}
		levels[hs.ExpectedLevel]++
		if hs.Param != "" {
			params[hs.Param]++
		}
	}
	for _, lv := range []string{"L1", "L2", "L3", "DRAM"} {
		if levels[lv] == 0 {
			t.Errorf("no kernel targets %s", lv)
		}
	}
	for _, p := range []string{"sparsity", "vec-width-mix"} {
		if params[p] != 1 {
			t.Errorf("surface param %s covered by %d kernels, want 1", p, params[p])
		}
	}
	// Hierarchy kernels stay out of the paper's Table I roster.
	for _, s := range All() {
		for _, hs := range specs {
			if s.Name == hs.Name {
				t.Errorf("%s leaked into the main suite", s.Name)
			}
		}
	}
}
