// Bottleneck-hunt: the paper's full workflow end to end, scaled down —
// simulate HPC-style workloads on the modeled CPU, sample its counters
// with perf-stat-style multiplexing, train a SPIRE ensemble on the
// training set, and hunt for bottlenecks in an unseen workload (§IV-V).
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"spire/internal/core"
	"spire/internal/engine"
	"spire/internal/perfstat"
	"spire/internal/pmu"
	"spire/internal/report"
	"spire/internal/sim"
	"spire/internal/uarch"
	"spire/internal/workloads"
)

const scale = 0.1 // keep the example snappy; raise for better models

func collect(name string) (core.Dataset, perfstat.Report) {
	spec, err := workloads.ByName(name)
	if err != nil {
		log.Fatal(err)
	}
	s, err := sim.New(uarch.Default(), spec.Build(scale), 42)
	if err != nil {
		log.Fatal(err)
	}
	data, rep, err := perfstat.Collect(s, name, perfstat.Options{
		IntervalCycles: 25_000,
		MaxCycles:      1_500_000,
		Multiplex:      true,
	})
	if err != nil {
		log.Fatal(err)
	}
	return data, rep
}

func main() {
	// 1. Train on a slice of the training suite spanning all four
	//    bottleneck families (the full suite has 23; see cmd/spire-bench
	//    for the complete experiment).
	trainingSet := []string{
		"llamafile", "scikit-featexp", // front-end flavoured
		"numenta-nab", "graph500", // bad speculation
		"remhos", "faiss-sift1m", "onednn-ip3d", // memory
		"qmcpack", "parboil-mri", "arrayfire-blas", // core / high IPC
	}
	var train core.Dataset
	for _, name := range trainingSet {
		data, rep := collect(name)
		fmt.Printf("trained on %-16s IPC %.2f, %d samples\n", name, rep.IPC, data.Len())
		train.Merge(data)
	}
	model, err := core.Train(train, core.TrainOptions{WorkUnit: "instructions", TimeUnit: "cycles"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nensemble: %d metric rooflines\n\n", len(model.Rooflines))

	// 2. Hunt: analyze the held-out memory-bound test workload.
	target := "onnx"
	data, rep := collect(target)
	est, err := engine.Default().Estimate(context.Background(), model, data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analyzing %s: measured IPC %.2f, SPIRE attainable estimate %.2f\n\n",
		target, rep.IPC, est.MaxThroughput)

	t := report.Table{
		Title:   "Candidate bottlenecks for " + target,
		Headers: []string{"Rank", "Abbr", "Metric", "Mean est.", "TMA area"},
	}
	for i, m := range est.TopMetrics(8) {
		ev, _ := pmu.Lookup(m.Metric)
		t.AddRow(fmt.Sprintf("%d", i+1), ev.Abbr, m.Metric,
			fmt.Sprintf("%.2f", m.MeanEstimate), ev.Area.String())
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nexpect memory-area metrics (L1.x, M, L3) to dominate this ranking")
}
