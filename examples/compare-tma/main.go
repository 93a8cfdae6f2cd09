// Compare-tma: the paper's validation methodology (§V) on one workload —
// run it once, produce both a SPIRE bottleneck ranking and a VTune-style
// Top-Down Microarchitecture Analysis from the same counters, and show
// them side by side.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"spire/internal/core"
	"spire/internal/engine"
	"spire/internal/perfstat"
	"spire/internal/pmu"
	"spire/internal/report"
	"spire/internal/sim"
	"spire/internal/tma"
	"spire/internal/uarch"
	"spire/internal/workloads"
)

func main() {
	target := flag.String("workload", "tnn", "workload to analyze (perfstat -list)")
	flag.Parse()

	// Train a model on a compact slice of the training suite.
	var train core.Dataset
	for _, name := range []string{
		"scikit-featexp", "graph500", "remhos", "faiss-sift1m",
		"qmcpack", "parboil-mri", "arrayfire-blas", "openvino-age",
	} {
		data := mustCollect(name)
		train.Merge(data)
	}
	model, err := core.Train(train, core.TrainOptions{WorkUnit: "instructions", TimeUnit: "cycles"})
	if err != nil {
		log.Fatal(err)
	}

	// Measure the target once; SPIRE consumes the multiplexed samples,
	// TMA the whole-run counter totals.
	spec, err := workloads.ByName(*target)
	if err != nil {
		log.Fatal(err)
	}
	s, err := sim.New(uarch.Default(), spec.Build(0.1), 7)
	if err != nil {
		log.Fatal(err)
	}
	data, rep, err := perfstat.Collect(s, *target, perfstat.Options{
		IntervalCycles: 25_000,
		MaxCycles:      1_500_000,
		Multiplex:      true,
	})
	if err != nil {
		log.Fatal(err)
	}
	counts := s.PMU().Snapshot()

	// Baseline: Top-Down Analysis.
	bd, err := tma.Analyze(counts, uarch.Default().IssueWidth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== %s (IPC %.2f) ==\n\n", *target, rep.IPC)
	fmt.Printf("TMA (VTune-style): %s\n", bd)
	fmt.Printf("TMA main bottleneck: %s\n\n", bd.MainBottleneck())

	// SPIRE: metric ranking, via the shared estimation engine.
	est, err := engine.Default().Estimate(context.Background(), model, data)
	if err != nil {
		log.Fatal(err)
	}
	t := report.Table{
		Title:   "SPIRE ranking (ascending attainable-IPC estimate)",
		Headers: []string{"Rank", "Abbr", "Mean est.", "TMA area"},
	}
	agree := 0
	top := est.TopMetrics(10)
	for i, m := range top {
		ev, _ := pmu.Lookup(m.Metric)
		t.AddRow(fmt.Sprintf("%d", i+1), ev.Abbr, fmt.Sprintf("%.2f", m.MeanEstimate), ev.Area.String())
		if ev.Area == bd.MainBottleneck() {
			agree++
		}
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d of %d top SPIRE metrics share TMA's main bottleneck area\n", agree, len(top))
}

func mustCollect(name string) core.Dataset {
	spec, err := workloads.ByName(name)
	if err != nil {
		log.Fatal(err)
	}
	s, err := sim.New(uarch.Default(), spec.Build(0.1), 7)
	if err != nil {
		log.Fatal(err)
	}
	data, _, err := perfstat.Collect(s, name, perfstat.Options{
		IntervalCycles: 25_000,
		MaxCycles:      1_500_000,
		Multiplex:      true,
	})
	if err != nil {
		log.Fatal(err)
	}
	return data
}
