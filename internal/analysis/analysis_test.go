package analysis

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"spire/internal/core"
	"spire/internal/engine"
	"spire/internal/pmu"
)

// estimation builds a core.Estimation from (metric, estimate) pairs
// already sorted ascending.
func estimation(measured float64, pairs ...interface{}) *core.Estimation {
	est := &core.Estimation{MeasuredThroughput: measured, MaxThroughput: math.Inf(1)}
	for i := 0; i+1 < len(pairs); i += 2 {
		m := core.MetricEstimate{
			Metric:       pairs[i].(string),
			MeanEstimate: pairs[i+1].(float64),
			Samples:      10,
		}
		est.PerMetric = append(est.PerMetric, m)
		if m.MeanEstimate < est.MaxThroughput {
			est.MaxThroughput = m.MeanEstimate
		}
	}
	return est
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(nil, Options{}); err != ErrEmptyEstimation {
		t.Errorf("nil estimation: err = %v", err)
	}
	if _, err := Analyze(&core.Estimation{}, Options{}); err != ErrEmptyEstimation {
		t.Errorf("empty estimation: err = %v", err)
	}
}

func TestPoolSelection(t *testing.T) {
	est := estimation(0.5,
		"cycle_activity.stalls_total", 0.50,
		"uops_retired.stall_cycles", 0.51,
		"longest_lat_cache.miss", 0.56,
		"br_misp_retired.all_branches", 0.90, // outside +15%
	)
	r, err := Analyze(est, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Pool) != 3 {
		t.Fatalf("pool = %d members, want 3 (the +15%% band)", len(r.Pool))
	}
	if r.Pool[0].Slack != 0 {
		t.Errorf("binding metric slack = %g, want 0", r.Pool[0].Slack)
	}
	if r.Pool[2].Slack < 0.1 || r.Pool[2].Slack > 0.15 {
		t.Errorf("third member slack = %g", r.Pool[2].Slack)
	}
}

func TestPoolCap(t *testing.T) {
	est := estimation(1,
		"m1", 1.0, "m2", 1.0, "m3", 1.0, "m4", 1.0, "m5", 1.0,
	)
	r, err := Analyze(est, Options{MaxPool: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Pool) != 3 {
		t.Errorf("pool = %d, want capped at 3", len(r.Pool))
	}
}

func TestClustering(t *testing.T) {
	est := estimation(0.5,
		"a", 0.500,
		"b", 0.502, // same cluster as a
		"c", 0.540, // new cluster
		"d", 0.545, // same cluster as c
	)
	r, err := Analyze(est, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Clusters != 2 {
		t.Fatalf("clusters = %d, want 2", r.Clusters)
	}
	if r.Pool[0].Cluster != r.Pool[1].Cluster {
		t.Error("a and b should share a cluster")
	}
	if r.Pool[1].Cluster == r.Pool[2].Cluster {
		t.Error("b and c should be in different clusters")
	}
	if r.Pool[2].Cluster != r.Pool[3].Cluster {
		t.Error("c and d should share a cluster")
	}
}

func TestAreaSharesAndPrimary(t *testing.T) {
	est := estimation(0.5,
		"cycle_activity.cycles_mem_any", 0.50, // Memory
		"cycle_activity.cycles_l1d_miss", 0.51, // Memory
		"cycle_activity.stalls_total", 0.52, // Core
	)
	r, err := Analyze(est, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.PrimaryArea != pmu.AreaMemory {
		t.Errorf("primary = %v, want Memory", r.PrimaryArea)
	}
	if got := r.AreaShares[pmu.AreaMemory]; math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("memory share = %g, want 2/3", got)
	}
}

func TestUnknownMetricGetsNoArea(t *testing.T) {
	est := estimation(0.5, "custom.metric", 0.5)
	r, err := Analyze(est, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Pool[0].Area != pmu.AreaNone {
		t.Errorf("unknown metric area = %v, want none", r.Pool[0].Area)
	}
	if r.Pool[0].Abbr != "custom.metric" {
		t.Errorf("unknown metric abbr fallback = %q", r.Pool[0].Abbr)
	}
}

func TestHeadroom(t *testing.T) {
	r, err := Analyze(estimation(0.5, "m", 0.6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Headroom-0.2) > 1e-9 {
		t.Errorf("headroom = %g, want 0.2", r.Headroom)
	}
	r, err = Analyze(estimation(0, "m", 0.6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(r.Headroom) {
		t.Errorf("headroom with zero measured = %g, want NaN", r.Headroom)
	}
}

func TestRender(t *testing.T) {
	cases := []struct {
		measured float64
		estimate float64
		want     string
	}{
		{0.70, 0.60, "exceeds the learned bound"},
		{0.59, 0.60, "runs at its learned bound"},
		{0.30, 0.60, "below its learned bound"},
	}
	for _, c := range cases {
		r, err := Analyze(estimation(c.measured, "cycle_activity.stalls_total", c.estimate), Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.Render(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if !strings.Contains(out, c.want) {
			t.Errorf("measured %.2f vs bound %.2f: advice missing %q in:\n%s", c.measured, c.estimate, c.want, out)
		}
		if !strings.Contains(out, "CS.1") {
			t.Errorf("render missing abbreviation:\n%s", out)
		}
	}
}

func TestSortPoolByArea(t *testing.T) {
	est := estimation(0.5,
		"cycle_activity.stalls_total", 0.50, // Core
		"cycle_activity.cycles_mem_any", 0.51, // Memory
		"exe_activity.1_ports_util", 0.52, // Core
	)
	r, err := Analyze(est, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sorted := r.SortPoolByArea()
	if len(sorted) != 3 {
		t.Fatal("pool size changed")
	}
	// Memory < Core in the Area enum ordering.
	if sorted[0].Area != pmu.AreaMemory {
		t.Errorf("first area = %v", sorted[0].Area)
	}
	if sorted[1].Area != pmu.AreaCore || sorted[2].Area != pmu.AreaCore {
		t.Error("core metrics should be grouped")
	}
	if sorted[1].Estimate > sorted[2].Estimate {
		t.Error("within-area order should be ascending estimate")
	}
	// The original pool must be untouched.
	if r.Pool[0].Metric != "cycle_activity.stalls_total" {
		t.Error("SortPoolByArea mutated the report")
	}
}

func TestAnalyzeWithModelDirections(t *testing.T) {
	// Train a model whose peak is at I = 10; workloads left/right of it
	// get direction hints.
	var d core.Dataset
	for _, p := range []struct{ i, y float64 }{{1, 1}, {10, 3}, {100, 1}} {
		w := p.y
		d.Add(core.Sample{Metric: "cycle_activity.stalls_total", T: 1, W: w, M: w / p.i})
	}
	ens, err := core.Train(d, core.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wl core.Dataset
	wl.Add(core.Sample{Metric: "cycle_activity.stalls_total", T: 1, W: 2, M: 1}) // I = 2, left of peak
	est, err := engine.Default().Estimate(context.Background(), ens, wl)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Analyze(est, Options{Model: ens})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pool[0].HasRegion || r.Pool[0].Region != core.RegionLeft {
		t.Errorf("expected left-region classification: %+v", r.Pool[0])
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "reduce event rate") {
		t.Errorf("render missing direction hint:\n%s", buf.String())
	}
	// Without a model, no region info.
	r2, err := Analyze(est, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Pool[0].HasRegion {
		t.Error("region should be absent without a model")
	}
}

func TestWhatIfAnalysis(t *testing.T) {
	est := estimation(0.5, "a", 0.50, "b", 0.70, "c", 0.90)
	ws := WhatIfAnalysis(est, 3)
	if len(ws) != 3 {
		t.Fatalf("entries = %d", len(ws))
	}
	// Relieving the binding metric exposes the second-lowest bound.
	if ws[0].Metric != "a" {
		t.Errorf("best relief = %s, want a", ws[0].Metric)
	}
	if math.Abs(ws[0].NewBound-0.70) > 1e-12 {
		t.Errorf("new bound = %g, want 0.70", ws[0].NewBound)
	}
	if math.Abs(ws[0].Uplift-0.4) > 1e-9 {
		t.Errorf("uplift = %g, want 0.4", ws[0].Uplift)
	}
	// Relieving non-binding metrics buys nothing.
	for _, w := range ws[1:] {
		if w.Uplift != 0 {
			t.Errorf("%s uplift = %g, want 0", w.Metric, w.Uplift)
		}
	}
	best, ok := BestSingleRelief(est)
	if !ok || best.Metric != "a" {
		t.Errorf("BestSingleRelief = %+v, %v", best, ok)
	}
}

func TestWhatIfTiedBound(t *testing.T) {
	// Two metrics tied at the minimum: no single relief helps.
	est := estimation(0.5, "a", 0.50, "b", 0.50, "c", 0.90)
	if _, ok := BestSingleRelief(est); ok {
		t.Error("tied bound should report no single relief")
	}
	ws := WhatIfAnalysis(est, 2)
	if ws[0].Uplift != 0 {
		t.Errorf("tied uplift = %g, want 0", ws[0].Uplift)
	}
}

func TestWhatIfDegenerate(t *testing.T) {
	if got := WhatIfAnalysis(nil, 5); got != nil {
		t.Error("nil estimation should yield nil")
	}
	est := estimation(0.5, "only", 0.5)
	ws := WhatIfAnalysis(est, 5)
	if len(ws) != 1 || ws[0].Uplift != 0 {
		t.Errorf("single-metric what-if = %+v", ws)
	}
}
