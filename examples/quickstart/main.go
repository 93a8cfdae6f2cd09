// Quickstart: train a SPIRE ensemble from raw counter samples and rank
// bottleneck candidates for a new workload — no simulator involved, just
// the core model API (paper §III).
//
// The scenario: a machine with two counters, "stalls" (negatively
// associated with performance) and "cache_hits" (positively associated).
// Training samples sweep each metric's operational intensity; the analyzed
// workload stalls heavily, so SPIRE should rank "stalls" first.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"

	"spire/internal/core"
	"spire/internal/engine"
	"spire/internal/report"
)

func main() {
	rng := rand.New(rand.NewSource(1))

	// 1. Collect training samples. Each sample is (metric, T, W, M):
	//    a period of T cycles in which W instructions retired and the
	//    metric increased by M. Throughput P = W/T rises with
	//    instructions-per-stall and falls as cache hits get rarer.
	var train core.Dataset
	for i := 0; i < 400; i++ {
		T := 1000.0
		// Stalls: IPC improves with I = W/M, saturating near 3.0.
		iStall := 1 + rng.Float64()*49 // instructions per stall
		ipc := 3.0 * iStall / (iStall + 8)
		w := ipc * T
		train.Add(core.Sample{Metric: "stalls", T: T, W: w, M: w / iStall})

		// Cache hits: performance needs frequent hits, so IPC drops as
		// instructions-per-hit grows.
		iHit := 1 + rng.Float64()*19
		ipcHit := 3.2 / (1 + 0.15*iHit)
		w2 := ipcHit * T
		train.Add(core.Sample{Metric: "cache_hits", T: T, W: w2, M: w2 / iHit})
	}

	// 2. Train: one piecewise-linear roofline per metric.
	model, err := core.Train(train, core.TrainOptions{WorkUnit: "instructions", TimeUnit: "cycles"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d rooflines from %d samples\n\n", len(model.Rooflines), train.Len())

	// 3. Measure a workload: it stalls every 3 instructions (bad) but
	//    hits the cache every 2 instructions (fine).
	var workload core.Dataset
	for i := 0; i < 20; i++ {
		T, W := 1000.0, 900.0
		workload.Add(
			core.Sample{Metric: "stalls", T: T, W: W, M: W / 3},
			core.Sample{Metric: "cache_hits", T: T, W: W, M: W / 2},
		)
	}

	// 4. Estimate and rank on the shared engine: the lowest per-metric
	//    estimate is the likely bottleneck (paper Fig. 4).
	est, err := engine.Default().Estimate(context.Background(), model, workload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured IPC: %.2f\n", est.MeasuredThroughput)
	fmt.Printf("SPIRE attainable-IPC estimate: %.2f\n\n", est.MaxThroughput)

	t := report.Table{
		Title:   "Bottleneck ranking (lowest estimate = most likely bottleneck)",
		Headers: []string{"Rank", "Metric", "Mean estimate", "Mean intensity"},
	}
	for i, m := range est.PerMetric {
		t.AddRow(fmt.Sprintf("%d", i+1), m.Metric,
			fmt.Sprintf("%.2f", m.MeanEstimate), fmt.Sprintf("%.2f", m.MeanIntensity))
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if est.PerMetric[0].Metric == "stalls" {
		fmt.Println("\n-> stalls correctly identified as the binding constraint")
	}
}
