// Custom-metric: SPIRE is architecture-agnostic — any measurable quantity
// can be a metric (paper §III: "a sample is associated with a single
// performance metric"). This example models a custom accelerator-style
// counter ("dma_descriptors") alongside a handcrafted workload kernel,
// shows how to define your own isa.Program, restrict sampling to a chosen
// event subset, and inspect a learned roofline directly.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"spire/internal/core"
	"spire/internal/isa"
	"spire/internal/perfstat"
	"spire/internal/pmu"
	"spire/internal/report"
	"spire/internal/sim"
	"spire/internal/uarch"
)

// dmaKernel is a custom workload: bursts of streaming loads ("DMA
// descriptors") separated by compute. Not part of the built-in suite —
// any type implementing isa.Program plugs into the simulator.
type dmaKernel struct {
	bursts  int
	burstSz int
	compute int
	pos     int
	rng     *rand.Rand
}

func (k *dmaKernel) Name() string { return "dma-kernel" }
func (k *dmaKernel) Reset(seed int64) {
	k.pos = 0
	k.rng = rand.New(rand.NewSource(seed))
}

func (k *dmaKernel) Next() (isa.Inst, bool) {
	period := k.burstSz + k.compute
	total := k.bursts * period
	if k.pos >= total {
		return isa.Inst{}, false
	}
	i := k.pos % period
	k.pos++
	if i < k.burstSz {
		// Descriptor fetch: strided loads over a DRAM-sized buffer.
		return isa.Inst{
			PC: 0x9000, Op: isa.OpLoad, Dst: 1, Size: 8,
			Addr: 0x4000_0000 + uint64(k.rng.Intn(1<<24))&^63,
		}, true
	}
	return isa.Inst{PC: 0x9004 + uint64(4*(i%16)), Op: isa.OpFMA, Dst: isa.Reg(2 + i%6)}, true
}

func main() {
	// Sample only three events: SPIRE happily works with whatever
	// counters the hardware (here: the simulator) exposes. The load-miss
	// counter plays the role of our "dma_descriptors" metric.
	events := []pmu.EventID{pmu.EvLoadL1Miss, pmu.EvStallsTotal, pmu.EvBrMispRetired}

	// Train across burst intensities so the roofline sees a wide
	// operational-intensity range.
	var train core.Dataset
	for _, compute := range []int{4, 16, 64, 256, 1024} {
		k := &dmaKernel{bursts: 400, burstSz: 8, compute: compute}
		s, err := sim.New(uarch.Default(), k, int64(compute))
		if err != nil {
			log.Fatal(err)
		}
		data, rep, err := perfstat.Collect(s, k.Name(), perfstat.Options{
			Events:         events,
			IntervalCycles: 10_000,
			MaxCycles:      2_000_000,
			Multiplex:      true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("compute/burst %4d: IPC %.2f, %d samples\n", compute, rep.IPC, data.Len())
		train.Merge(data)
	}

	model, err := core.Train(train, core.TrainOptions{WorkUnit: "instructions", TimeUnit: "cycles"})
	if err != nil {
		log.Fatal(err)
	}

	// Inspect the learned roofline for the descriptor metric: IPC should
	// rise with instructions-per-miss (fewer descriptor stalls).
	metric := pmu.Describe(pmu.EvLoadL1Miss).Name
	r := model.Rooflines[metric]
	if r == nil {
		log.Fatalf("no roofline for %s", metric)
	}
	fmt.Printf("\nlearned roofline for %s: peak (%.3g, %.3g), %d left / %d right breakpoints\n",
		metric, r.Peak().X, r.Peak().Y, len(r.Left), len(r.Right))

	curve := report.Series{Name: "bound"}
	for i := 1; i <= 60; i++ {
		x := r.Peak().X * 1.5 * float64(i) / 60
		curve.X = append(curve.X, x)
		curve.Y = append(curve.Y, r.Eval(x))
	}
	if err := report.AsciiPlot(os.Stdout, 64, 12, curve); err != nil {
		log.Fatal(err)
	}

	// Query the bound directly for a hypothetical workload.
	for _, ipm := range []float64{2, 10, 50} {
		fmt.Printf("at %3.0f instructions/descriptor-miss, attainable IPC <= %.2f\n", ipm, r.Eval(ipm))
	}
}
