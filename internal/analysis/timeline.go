package analysis

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"spire/internal/core"
	"spire/internal/engine"
	"spire/internal/pmu"
	"spire/internal/report"
)

// TimelinePoint is one collection window's verdict: the measured
// throughput, the SPIRE bound, and the binding metric during that window.
// A sequence of points exposes workload phases — the paper warns that
// over- or under-represented phases skew whole-run analysis (§III-A),
// and a timeline makes such phases visible.
type TimelinePoint struct {
	Window    int
	Measured  float64
	Estimate  float64
	TopMetric string
	TopAbbr   string
	Area      pmu.Area
}

// ErrNoWindows is returned when the dataset carries no window tags.
var ErrNoWindows = errors.New("analysis: dataset has no window information")

// Timeline estimates each collection window independently against the
// trained ensemble. Windows appear in ascending order; windows whose
// samples all miss the model are skipped.
func Timeline(ens *core.Ensemble, d core.Dataset) ([]TimelinePoint, error) {
	byWindow := make(map[int][]core.Sample)
	for _, s := range d.Samples {
		byWindow[s.Window] = append(byWindow[s.Window], s)
	}
	if len(byWindow) == 0 || (len(byWindow) == 1 && len(byWindow[0]) > 0) {
		// Only the untagged window exists: no phase information.
		if _, untaggedOnly := byWindow[0]; untaggedOnly && len(byWindow) == 1 {
			return nil, ErrNoWindows
		}
	}
	windows := make([]int, 0, len(byWindow))
	for w := range byWindow {
		windows = append(windows, w)
	}
	sort.Ints(windows)

	eng := engine.Default()
	var out []TimelinePoint
	for _, w := range windows {
		var wd core.Dataset
		wd.Add(byWindow[w]...)
		est, err := eng.Estimate(context.Background(), ens, wd)
		if err != nil {
			continue
		}
		p := TimelinePoint{
			Window:   w,
			Measured: est.MeasuredThroughput,
			Estimate: est.MaxThroughput,
		}
		if len(est.PerMetric) > 0 {
			p.TopMetric = est.PerMetric[0].Metric
			p.TopAbbr = p.TopMetric
			if ev, ok := pmu.Lookup(p.TopMetric); ok {
				p.TopAbbr = ev.Abbr
				p.Area = ev.Area
			}
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, core.ErrNoSamples
	}
	return out, nil
}

// PhaseChanges returns the windows at which the binding metric switches —
// a quick phase-boundary detector.
func PhaseChanges(tl []TimelinePoint) []int {
	var out []int
	for i := 1; i < len(tl); i++ {
		if tl[i].TopMetric != tl[i-1].TopMetric {
			out = append(out, tl[i].Window)
		}
	}
	return out
}

// RenderTimeline prints the timeline as a table plus a one-line phase
// summary.
func RenderTimeline(w io.Writer, tl []TimelinePoint) error {
	t := report.Table{
		Title:   "Per-window bottleneck timeline",
		Headers: []string{"Window", "Measured", "Bound", "Binding metric", "Area"},
	}
	for _, p := range tl {
		t.AddRow(
			fmt.Sprintf("%d", p.Window),
			fmt.Sprintf("%.3f", p.Measured),
			fmt.Sprintf("%.3f", p.Estimate),
			p.TopAbbr,
			p.Area.String(),
		)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	changes := PhaseChanges(tl)
	if len(changes) == 0 {
		_, err := fmt.Fprintln(w, "single-phase workload: the binding metric never changes")
		return err
	}
	_, err := fmt.Fprintf(w, "%d phase changes at windows %v\n", len(changes), changes)
	return err
}
