package tma

import (
	"context"
	"math/rand"
	"testing"

	"spire/internal/core"
	"spire/internal/engine"
	"spire/internal/pmu"
)

// levelParams drive the synthetic counter generator: per-level load-to-
// use latency (stall cost per load served there) and the deliverable
// bandwidth the validation model assumes.
var levelParams = map[string]struct {
	latency float64
	beta    float64
	event   pmu.EventID
}{
	"L1":   {latency: 4, beta: 32, event: pmu.EvLoadL1Hit},
	"L2":   {latency: 10, beta: 16, event: pmu.EvLoadL2Hit},
	"L3":   {latency: 26, beta: 8, event: pmu.EvLoadL3Hit},
	"DRAM": {latency: 180, beta: 2, event: pmu.EvLoadL3Miss},
}

// hierarchyEnsemble builds the four-level bandwidth-roofline model the
// randomized harness estimates through.
func hierarchyEnsemble(t *testing.T) *core.Ensemble {
	t.Helper()
	ens := &core.Ensemble{
		Rooflines: map[string]*core.Roofline{},
		WorkUnit:  "instructions",
		TimeUnit:  "cycles",
		Hierarchy: &core.HierarchyModel{Levels: core.DefaultHierarchyLevels()},
	}
	for _, lv := range ens.Hierarchy.Levels {
		p, ok := levelParams[lv.Level]
		if !ok {
			t.Fatalf("no params for level %q", lv.Level)
		}
		r, err := core.BandwidthRoofline(lv.Metric, 4.0, p.beta, 64)
		if err != nil {
			t.Fatal(err)
		}
		ens.Rooflines[lv.Metric] = r
	}
	return ens
}

// syntheticRun plants a dominant memory level in a counter snapshot and
// the matching sample dataset: the dominant level carries most of the
// load traffic (and so most of the stall cycles), the others a trickle.
// memBound=false plants a compute-bound run instead (negligible memory
// traffic), exercising the vacuous path.
func syntheticRun(rng *rand.Rand, ens *core.Ensemble, dominant string, memBound bool) (core.Dataset, pmu.Counts) {
	insts := 1_000_000 * (0.5 + rng.Float64())
	loads := map[string]float64{}
	for name := range levelParams {
		frac := (1 + rng.Float64()) / 8192 // background traffic
		if !memBound {
			// Compute-bound run: memory traffic an order of magnitude
			// below the background trickle, so TMA sees almost no memory
			// stalls at all.
			frac /= 64
		} else if name == dominant {
			frac = 0.1 + 0.4*rng.Float64() // dominant traffic
		}
		loads[name] = insts * frac
	}

	contention := 0.8 + 0.4*rng.Float64()
	stall := map[string]float64{}
	var memStalls float64
	for name, n := range loads {
		stall[name] = n * levelParams[name].latency * contention
		memStalls += stall[name]
	}

	p := pmu.New()
	cycles := insts/4 + memStalls
	p.Add(pmu.EvCycles, uint64(cycles))
	p.Add(pmu.EvInstRetired, uint64(insts))
	p.Add(pmu.EvUopsRetiredSlots, uint64(insts))
	p.Add(pmu.EvUopsIssuedAny, uint64(insts))
	p.Add(pmu.EvStallsTotal, uint64(memStalls*1.05+cycles*0.01))
	p.Add(pmu.EvStallsMemAny, uint64(memStalls))
	// Cumulative deepest-outstanding-miss stalls, as the hardware counts
	// them: L3-miss ⊂ L2-miss ⊂ L1D-miss ⊂ mem-any.
	p.Add(pmu.EvStallsL3Miss, uint64(stall["DRAM"]))
	p.Add(pmu.EvStallsL2Miss, uint64(stall["DRAM"]+stall["L3"]))
	p.Add(pmu.EvStallsL1DMiss, uint64(stall["DRAM"]+stall["L3"]+stall["L2"]))
	for name, n := range loads {
		p.Add(levelParams[name].event, uint64(n))
	}
	p.Add(pmu.EvLoadL1Miss, uint64(loads["L2"]+loads["L3"]+loads["DRAM"]))
	p.Add(pmu.EvLoadL2Miss, uint64(loads["L3"]+loads["DRAM"]))

	var data core.Dataset
	for _, lv := range ens.Hierarchy.Levels {
		data.Samples = append(data.Samples, core.Sample{
			Metric: lv.Metric, T: cycles, W: insts, M: loads[lv.Level],
		})
	}
	return data, p.Snapshot()
}

// TestCrossCheckRandomizedAgreement is the paper-style validation run:
// across randomized workloads with a planted dominant memory level, the
// SPIRE hierarchical verdict and the TMA tree must agree on at least 95%
// of cases.
func TestCrossCheckRandomizedAgreement(t *testing.T) {
	ens := hierarchyEnsemble(t)
	rng := rand.New(rand.NewSource(97))
	names := []string{"L1", "L2", "L3", "DRAM"}

	const cases = 400
	agree, vacuous := 0, 0
	for i := 0; i < cases; i++ {
		dominant := names[rng.Intn(len(names))]
		memBound := rng.Float64() > 0.1
		data, counts := syntheticRun(rng, ens, dominant, memBound)
		est, err := engine.Default().Estimate(context.Background(), ens, data)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if est.Hierarchy == nil {
			t.Fatalf("case %d: no hierarchy estimate", i)
		}
		if memBound && est.Hierarchy.BindingLevel != dominant {
			t.Logf("case %d: planted %s, spire says %s", i, dominant, est.Hierarchy.BindingLevel)
		}
		v, err := CrossCheck(est.Hierarchy, counts, 4)
		if err != nil {
			t.Fatalf("case %d: cross-check: %v", i, err)
		}
		if v.Vacuous {
			vacuous++
		}
		if v.Agree {
			agree++
		}
	}
	frac := float64(agree) / float64(cases)
	t.Logf("agreement: %d/%d (%.1f%%), %d vacuous", agree, cases, 100*frac, vacuous)
	if frac < 0.95 {
		t.Fatalf("TMA agreement %.1f%% below the 95%% validation bar", 100*frac)
	}
	if vacuous == 0 {
		t.Fatal("expected some compute-bound (vacuous) cases in the mix")
	}
}

// TestCrossCheckPlantedLevels pins the exact verdict for one clean
// planted case per level: SPIRE and TMA must both name the planted level.
func TestCrossCheckPlantedLevels(t *testing.T) {
	ens := hierarchyEnsemble(t)
	for _, dominant := range []string{"L1", "L2", "L3", "DRAM"} {
		rng := rand.New(rand.NewSource(7))
		data, counts := syntheticRun(rng, ens, dominant, true)
		est, err := engine.Default().Estimate(context.Background(), ens, data)
		if err != nil {
			t.Fatal(err)
		}
		if est.Hierarchy == nil {
			t.Fatal("no hierarchy estimate")
		}
		if got := est.Hierarchy.BindingLevel; got != dominant {
			t.Errorf("planted %s: spire binding level %s", dominant, got)
		}
		v, err := CrossCheck(est.Hierarchy, counts, 4)
		if err != nil {
			t.Fatal(err)
		}
		if v.TMALevel != dominant {
			t.Errorf("planted %s: tma level %s (shares spire %.2f top %.2f)", dominant, v.TMALevel, v.SpireShare, v.TMAShare)
		}
		if !v.Agree || v.Vacuous {
			t.Errorf("planted %s: verdict %+v", dominant, v)
		}
	}
}

func TestMemoryLevels(t *testing.T) {
	root := &Node{Name: "slots", Value: 1, Children: []*Node{
		{Name: "back-end-bound", Value: 0.8, Children: []*Node{
			{Name: "memory-bound", Value: 0.7, Children: []*Node{
				{Name: "l1-bound", Value: 0.1},
				{Name: "l2-bound", Value: 0.05},
				{Name: "l3-bound", Value: 0.15},
				{Name: "dram-bound", Value: 0.35},
				{Name: "store-bound", Value: 0.05},
			}},
			{Name: "core-bound", Value: 0.1},
		}},
	}}
	shares := MemoryLevels(root)
	want := map[string]float64{"L1": 0.1, "L2": 0.05, "L3": 0.15, "DRAM": 0.35}
	if len(shares) != 4 {
		t.Fatalf("got %d levels", len(shares))
	}
	for _, s := range shares {
		if s.Share != want[s.Level] {
			t.Errorf("%s share %g, want %g", s.Level, s.Share, want[s.Level])
		}
	}
	// A tree without the memory split resolves to all-zero shares.
	for _, s := range MemoryLevels(&Node{Name: "slots", Value: 1}) {
		if s.Share != 0 {
			t.Errorf("bare tree: %s share %g", s.Level, s.Share)
		}
	}
}

func TestCrossCheckErrors(t *testing.T) {
	p := pmu.New()
	p.Add(pmu.EvCycles, 1000)
	if _, err := CrossCheck(nil, p.Snapshot(), 4); err == nil {
		t.Error("nil hierarchy estimate: want error")
	}
	h := &core.HierarchyEstimate{BindingLevel: "HBM"}
	if _, err := CrossCheck(h, p.Snapshot(), 4); err == nil {
		t.Error("unknown binding level: want error")
	}
	h.BindingLevel = "L2"
	if _, err := CrossCheck(h, pmu.Counts{}, 4); err == nil {
		t.Error("empty counters: want error")
	}
	v, err := CrossCheck(h, p.Snapshot(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Vacuous || !v.Agree {
		t.Errorf("no memory stalls should be vacuous agreement, got %+v", v)
	}
}
