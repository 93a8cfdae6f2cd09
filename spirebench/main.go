// Command spirebench is SPIRE's serving benchmark. It simulates seeded
// inputs, starts in-process `spire serve` shards (and a `spire route`
// router where the workload routes) on loopback, drives one workload
// from this process, checks every output, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as the last line of
// standard output. See README.md in this directory.
//
// Usage, from the repository root:
//
//	bash spirebench/run.sh --workload serve-hot --seed 1 --seconds 30 --trace 0
//	bash spirebench/run.sh --repeat 10 --seconds 30
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// metricDef is one reported metric. The gated end-to-end metrics and the
// per-layer metrics, with their units and bounds, are read from
// BENCHMARK.json at the repository root, the benchmark's contract.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec() (*benchSpec, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// workloadSpecific are end-to-end metrics that exist on some workloads
// only (per-encoding latency where both encodings are sent, generator
// lateness on the open loop), are zero in a healthy run (error_rate), or
// spread across runs by more than any bound BENCHMARK.json may set
// (latency_p99_ms on stream-live), so BENCHMARK.json cannot gate them.
// They are printed on the report line.
var workloadSpecific = []metricDef{
	{Name: "latency_p99_ms", Unit: "ms"},
	{Name: "json.latency_p50_ms", Unit: "ms"},
	{Name: "spb1.latency_p50_ms", Unit: "ms"},
	{Name: "gen_lag_p99_ms", Unit: "ms"},
	{Name: "error_rate", Unit: "ratio"},
}

var workloadNames = []string{"serve-hot", "route-cold", "stream-live"}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "serve-hot, route-cold or stream-live (repeat mode: a comma list, default all)")
		seed     = flag.Int64("seed", 1, "input seed (repeat mode: the first seed)")
		seconds  = flag.Int("seconds", 30, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
		repeat   = flag.Int("repeat", 0, "repeat mode: untraced runs per workload in each of two sets, each with its own seed")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "spirebench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	spec, err := readSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spirebench:", err)
		os.Exit(1)
	}
	if *repeat > 0 {
		names := workloadNames
		if *workload != "" {
			names = strings.Split(*workload, ",")
		}
		if err := repeatMode(spec, names, *seed, *seconds, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "spirebench:", err)
			os.Exit(1)
		}
		return
	}
	if *workload == "" {
		fmt.Fprintln(os.Stderr, "spirebench: --workload is required")
		os.Exit(2)
	}

	res, err := runWorkload(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spirebench:", err)
		os.Exit(1)
	}
	var line strings.Builder
	fmt.Fprintf(&line, "spirebench: workload=%s seed=%d seconds=%d trace=%d attempted=%d failed=%d",
		*workload, *seed, *seconds, *trace, res.attempted, res.failed)
	for _, m := range append(append([]metricDef(nil), spec.EndToEnd...), workloadSpecific...) {
		v, ok := res.e2e[m.Name]
		if !ok {
			if v, ok = res.extra[m.Name]; !ok {
				continue
			}
		}
		fmt.Fprintf(&line, " %s=%.6g(%s)", m.Name, v, m.Unit)
	}
	fmt.Println(line.String())
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "spirebench:", p)
	}

	out := result{Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	defs, values := spec.EndToEnd, res.e2e
	if *trace == 1 {
		defs, values = spec.PerLayer, res.layers
	}
	for _, m := range defs {
		// A layer the workload does not exercise reports 0; every
		// end-to-end metric must have been measured.
		v := values[m.Name]
		if *trace == 0 && !(v > 0) {
			fmt.Fprintf(os.Stderr, "spirebench: %s not measured (%v)\n", m.Name, v)
			out.Correct = false
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if out.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "spirebench: no operation was attempted")
		os.Exit(1)
	}
	raw, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spirebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(raw))
	if !out.Correct {
		os.Exit(1)
	}
}
