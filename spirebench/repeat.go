package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// repeatMode runs every workload `runs` times in each of two sets, each
// run in its own process with its own seed, and prints each end-to-end
// metric's median, quartiles and quartile spread as a share of the median,
// the spread the metric's bound in BENCHMARK.json is held against, then
// how far the second set's median moved from the first's. One traced run
// per workload gives the tracing overhead on throughput_ops.
func repeatMode(spec *benchSpec, names []string, seed int64, seconds, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range names {
		var medians [2]map[string]float64
		for s := range medians {
			values := map[string][]float64{}
			for i := 0; i < runs; i++ {
				runSeed := seed + int64(s*runs+i)
				res, err := runChild(self, name, runSeed, seconds, 0)
				if err != nil {
					return err
				}
				for k, v := range res.Metrics {
					values[k] = append(values[k], v.Value)
				}
			}
			medians[s] = map[string]float64{}
			fmt.Printf("%s set %d (%d runs, seeds %d..%d, %d s each)\n", name, s+1, runs, seed+int64(s*runs), seed+int64(s*runs+runs-1), seconds)
			fmt.Printf("  %-18s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
			for _, m := range spec.EndToEnd {
				q := quartiles(values[m.Name])
				medians[s][m.Name] = q[1]
				spread := (q[2] - q[0]) / q[1]
				fmt.Printf("  %-18s %12.6g %12.6g %12.6g %7.1f%% %5.0f%% %s\n", m.Name, q[0], q[1], q[2], 100*spread, 100*m.Bound, m.Unit)
			}
		}
		fmt.Printf("%s set 2 vs set 1 (worse by, against the bound)\n", name)
		for _, m := range spec.EndToEnd {
			a, b := medians[0][m.Name], medians[1][m.Name]
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "EXCEEDS BOUND"
			}
			fmt.Printf("  %-18s %+7.1f%% (bound %.0f%%) %s\n", m.Name, 100*worse, 100*m.Bound, verdict)
		}
		res, err := runChild(self, name, seed, seconds, 1)
		if err != nil {
			return err
		}
		traced := res.Metrics["trace.throughput_ops"].Value
		fmt.Printf("%s tracing overhead: traced throughput %.6g/s vs untraced median %.6g/s, overhead %+.1f%%\n",
			name, traced, medians[0]["throughput_ops"], 100*(1-traced/medians[0]["throughput_ops"]))
	}
	return nil
}

// runChild runs one benchmark run as a child process and parses its
// result line. A run that fails or reports incorrect output is an error.
func runChild(self, name string, seed int64, seconds, trace int) (*result, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	last := lines[len(lines)-1]
	if len(lines) > 1 {
		fmt.Printf("  %s\n", lines[len(lines)-2])
	}
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: bad result line: %w", name, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: incorrect output", name, seed)
	}
	return &res, nil
}

// quartiles matches Python's statistics.quantiles(values, n=4), the
// default exclusive method.
func quartiles(values []float64) [3]float64 {
	var q [3]float64
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return q
	}
	if n == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}
