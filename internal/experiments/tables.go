package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"spire/internal/pmu"
	"spire/internal/report"
	"spire/internal/sim"
	"spire/internal/tma"
)

// Table1Row is one workload of the paper's Table I: name, configuration,
// and main TMA bottleneck, plus our measured detail.
type Table1Row struct {
	Name     string
	Config   string
	Testing  bool
	IPC      float64
	TMA      tma.Breakdown
	Main     pmu.Area
	Expected pmu.Area
}

// Table1 classifies every suite workload with the TMA baseline.
func (s *Session) Table1() ([]Table1Row, error) {
	train, err := s.TrainingRuns()
	if err != nil {
		return nil, err
	}
	test, err := s.TestRuns()
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, r := range append(append([]WorkloadRun{}, train...), test...) {
		rows = append(rows, Table1Row{
			Name:     r.Spec.Name,
			Config:   r.Spec.Config,
			Testing:  r.Spec.Testing,
			IPC:      r.Report.IPC,
			TMA:      r.TMA,
			Main:     r.TMA.MainBottleneck(),
			Expected: r.Spec.Expected,
		})
	}
	return rows, nil
}

// RenderTable1 prints Table I.
func RenderTable1(w io.Writer, rows []Table1Row) error {
	t := report.Table{
		Title:   "Table I: Workloads and their main TMA bottleneck",
		Headers: []string{"Workload", "Configuration", "Set", "IPC", "Main TMA Bottleneck", "Retiring", "FE", "BadSpec", "Mem", "Core"},
	}
	for _, r := range rows {
		set := "train"
		if r.Testing {
			set = "test"
		}
		t.AddRow(
			r.Name, r.Config, set,
			fmt.Sprintf("%.2f", r.IPC),
			r.Main.String(),
			fmt.Sprintf("%.0f%%", 100*r.TMA.Retiring),
			fmt.Sprintf("%.0f%%", 100*r.TMA.FrontEnd),
			fmt.Sprintf("%.0f%%", 100*r.TMA.BadSpeculation),
			fmt.Sprintf("%.0f%%", 100*r.TMA.MemoryBound),
			fmt.Sprintf("%.0f%%", 100*r.TMA.CoreBound),
		)
	}
	return t.Render(w)
}

// Table2Entry is one ranked metric of the paper's Table II: the mean IPC
// estimation, the metric abbreviation, and its closest TMA area.
type Table2Entry struct {
	Estimate float64
	Metric   string
	Abbr     string
	Area     pmu.Area
}

// Table2Col is one test workload's column in Table II.
type Table2Col struct {
	Workload    string
	MeasuredIPC float64
	TMA         tma.Breakdown
	TMAMain     pmu.Area
	Top         []Table2Entry
	// DominantArea is the most frequent TMA area among the top metrics
	// (the SPIRE-side bottleneck verdict).
	DominantArea pmu.Area
	// FracMatchingTMA is the fraction of top metrics whose area equals
	// the TMA main bottleneck — the paper's qualitative agreement.
	FracMatchingTMA float64
	// SpireEstimate is the ensemble's max-throughput estimate.
	SpireEstimate float64
}

// TopK is the number of metrics Table II reports per workload.
const TopK = 10

// Table2 runs the SPIRE analysis of the four test workloads against the
// trained ensemble and compares each ranking with the TMA baseline.
func (s *Session) Table2() ([]Table2Col, error) {
	ens, err := s.Ensemble()
	if err != nil {
		return nil, err
	}
	runs, err := s.TestRuns()
	if err != nil {
		return nil, err
	}
	var cols []Table2Col
	for _, r := range runs {
		est, err := estimate(ens, r.Data)
		if err != nil {
			return nil, fmt.Errorf("experiments: estimating %s: %w", r.Spec.Name, err)
		}
		col := Table2Col{
			Workload:      r.Spec.Name,
			MeasuredIPC:   r.Report.IPC,
			TMA:           r.TMA,
			TMAMain:       r.TMA.MainBottleneck(),
			SpireEstimate: est.MaxThroughput,
		}
		areaCount := make(map[pmu.Area]int)
		match := 0
		for _, m := range est.TopMetrics(TopK) {
			ev, ok := pmu.Lookup(m.Metric)
			if !ok {
				return nil, fmt.Errorf("experiments: metric %q not in registry", m.Metric)
			}
			e := Table2Entry{
				Estimate: m.MeanEstimate,
				Metric:   m.Metric,
				Abbr:     ev.Abbr,
				Area:     ev.Area,
			}
			col.Top = append(col.Top, e)
			areaCount[ev.Area]++
			if ev.Area == col.TMAMain {
				match++
			}
		}
		if len(col.Top) > 0 {
			col.FracMatchingTMA = float64(match) / float64(len(col.Top))
		}
		best, bestN := pmu.AreaNone, -1
		for _, a := range []pmu.Area{pmu.AreaFrontEnd, pmu.AreaBadSpeculation, pmu.AreaMemory, pmu.AreaCore} {
			if areaCount[a] > bestN {
				best, bestN = a, areaCount[a]
			}
		}
		col.DominantArea = best
		cols = append(cols, col)
	}
	return cols, nil
}

// RenderTable2 prints Table II: top metrics per test workload with mean
// IPC estimations and closest TMA areas.
func RenderTable2(w io.Writer, cols []Table2Col) error {
	for _, c := range cols {
		t := report.Table{
			Title: fmt.Sprintf("Table II (%s): measured IPC %.2f, SPIRE estimate %.2f, TMA main bottleneck %s [%s]",
				c.Workload, c.MeasuredIPC, c.SpireEstimate, c.TMAMain, c.TMA),
			Headers: []string{"Rank", "Mean est.", "Abbr", "Metric", "Closest TMA area"},
		}
		for i, e := range c.Top {
			t.AddRow(
				fmt.Sprintf("%d", i+1),
				fmt.Sprintf("%.2f", e.Estimate),
				e.Abbr,
				e.Metric,
				e.Area.String(),
			)
		}
		if err := t.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "SPIRE dominant area: %s; top-%d agreement with TMA main: %.0f%%\n\n",
			c.DominantArea, len(c.Top), 100*c.FracMatchingTMA); err != nil {
			return err
		}
	}
	return nil
}

// RenderTable3 prints Table III: the metric abbreviation registry grouped
// by microarchitecture area.
func RenderTable3(w io.Writer) error {
	t := report.Table{
		Title:   "Table III: performance metric abbreviations and names",
		Headers: []string{"Abbr", "Expanded metric name", "TMA area"},
	}
	evs := pmu.PaperTableEvents()
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Area != evs[j].Area {
			return evs[i].Area < evs[j].Area
		}
		return evs[i].Abbr < evs[j].Abbr
	})
	for _, ev := range evs {
		t.AddRow(ev.Abbr, ev.Name, ev.Area.String())
	}
	return t.Render(w)
}

// OverheadResult is the §IV sampling-overhead experiment.
type OverheadResult struct {
	// PerWorkload maps workload to its total overhead fraction: the
	// accounted counter-reprogramming cost plus the measured slowdown
	// from the sampling agent's cache perturbation against an unsampled
	// baseline run.
	PerWorkload map[string]float64
	Mean        float64
	Max         float64
}

// Overhead estimates the sampling overhead fraction for every workload by
// re-running each without any sampling and comparing throughput.
func (s *Session) Overhead() (OverheadResult, error) {
	train, err := s.TrainingRuns()
	if err != nil {
		return OverheadResult{}, err
	}
	test, err := s.TestRuns()
	if err != nil {
		return OverheadResult{}, err
	}
	runs := append(append([]WorkloadRun{}, train...), test...)

	// Unsampled baselines, bounded-parallel like runAll.
	type base struct {
		ipc float64
		err error
	}
	bases := make([]base, len(runs))
	sem := make(chan struct{}, s.Cfg.Parallel)
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func(i int, r WorkloadRun) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sm, err := sim.New(s.Cfg.core(), r.Spec.Build(s.Cfg.Scale), s.Cfg.Seed)
			if err != nil {
				bases[i] = base{err: err}
				return
			}
			res := sm.Run(s.Cfg.MaxCyclesPerWorkload)
			bases[i] = base{ipc: res.IPC}
		}(i, r)
	}
	wg.Wait()

	out := OverheadResult{PerWorkload: make(map[string]float64, len(runs))}
	var sum float64
	for i, r := range runs {
		if bases[i].err != nil {
			return OverheadResult{}, bases[i].err
		}
		measured := 0.0
		if r.Report.IPC > 0 && bases[i].ipc > r.Report.IPC {
			measured = bases[i].ipc/r.Report.IPC - 1
		}
		oh := r.Report.OverheadFraction + measured
		out.PerWorkload[r.Spec.Name] = oh
		sum += oh
		if oh > out.Max {
			out.Max = oh
		}
	}
	out.Mean = sum / float64(len(runs))
	return out, nil
}

// EstimationAccuracy summarizes how close the ensemble's max-throughput
// estimates are to measured IPC on the test workloads; SPIRE estimates an
// upper bound, so ratios at or above ~1 are the expected shape.
type EstimationAccuracy struct {
	Workload  string
	Measured  float64
	Estimated float64
	Ratio     float64
}

// Accuracy computes estimate/measured for the test workloads.
func (s *Session) Accuracy() ([]EstimationAccuracy, error) {
	cols, err := s.Table2()
	if err != nil {
		return nil, err
	}
	var out []EstimationAccuracy
	for _, c := range cols {
		r := 0.0
		if c.MeasuredIPC > 0 {
			r = c.SpireEstimate / c.MeasuredIPC
		}
		out = append(out, EstimationAccuracy{
			Workload:  c.Workload,
			Measured:  c.MeasuredIPC,
			Estimated: c.SpireEstimate,
			Ratio:     r,
		})
	}
	return out, nil
}
