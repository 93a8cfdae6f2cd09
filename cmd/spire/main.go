// Command spire trains and applies SPIRE models from the command line.
//
// Usage:
//
//	spire ingest -o dataset.json perf-interval.csv
//	spire train -o model.json sample1.json sample2.json ...
//	spire analyze -model model.json -top 10 workload.json
//	spire watch -model model.json -follow perf-live.csv
//	spire serve -addr :9090 -model model.json
//	spire route -addr :9091 -shards a=http://127.0.0.1:9090
//	spire info -model model.json
//
// Exit codes are uniform across subcommands: 0 success, 1 error, 2 usage
// error, 3 partial success (a lenient ingest lost input to severe
// anomalies but still produced a dataset). Data goes to stdout (or the
// -o file); every diagnostic, warning and log line goes to stderr.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"spire/internal/analysis"
	"spire/internal/buildinfo"
	"spire/internal/core"
	"spire/internal/engine"
	"spire/internal/htmlreport"
	"spire/internal/pmu"
	"spire/internal/report"
)

// The uniform exit-code contract (tested black-box in e2e_test.go).
const (
	exitOK      = 0
	exitErr     = 1
	exitUsage   = 2
	exitPartial = 3
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run dispatches one subcommand and maps its error to an exit code.
func run(args []string) int {
	if len(args) < 1 {
		usage()
		return exitUsage
	}
	var err error
	switch args[0] {
	case "ingest":
		err = cmdIngest(args[1:])
	case "train":
		err = cmdTrain(args[1:])
	case "analyze":
		err = cmdAnalyze(args[1:])
	case "watch":
		err = cmdWatch(args[1:])
	case "diff":
		err = cmdDiff(args[1:])
	case "info":
		err = cmdInfo(args[1:])
	case "serve":
		err = cmdServe(args[1:])
	case "route":
		err = cmdRoute(args[1:])
	case "version", "-version", "--version":
		fmt.Println(buildinfo.String())
		return exitOK
	case "-h", "--help", "help":
		usage()
		return exitOK
	default:
		fmt.Fprintf(os.Stderr, "spire: unknown command %q\n", args[0])
		usage()
		return exitUsage
	}
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, errPartialIngest):
		fmt.Fprintln(os.Stderr, "spire:", err)
		return exitPartial
	default:
		fmt.Fprintln(os.Stderr, "spire:", err)
		return exitErr
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `spire - statistical piecewise linear roofline ensemble

commands:
  ingest   [-strict|-lenient] [-format auto|csv|json] [-min-run-pct P] [-o dataset.json] perf.csv...
  train    -o model.json [-min-samples N] [-workers N] [-hierarchy] [-v] dataset.json...
  analyze  -model model.json [-top K] [-json] [-interpret] [-timeline] [-html out.html]
           [-remote URL [-tenant T] [-wire json|bin]] dataset.json...
  watch    -model model.json [-window N] [-top K] [-json] [-follow] [-poll D] [-strict] [-v] perf.csv|-
  serve    [-addr HOST:PORT] [-model model.json] [-model-dir DIR] [-cache N] [-pprof]
           [-max-inflight N] [-admission-queue N] [-queue-wait D] [-tenant-rate R] [-tenant-burst B] [-degraded-cache N]
  route    [-addr HOST:PORT] (-shards name=URL,... | -config cluster.json) [-model model.json]
           [-vnodes N] [-load-factor F] [-health-interval D] [-sync-interval D]
  diff     -model model.json [-top K] [-json] [-remote URL [-tenant T] [-wire json|bin]] before.json after.json
  info     -model model.json
  version

exit codes: 0 ok, 1 error, 2 usage, 3 partial (lenient ingest lost input)`)
}

func readDatasets(paths []string) (core.Dataset, error) {
	var all core.Dataset
	if len(paths) == 0 {
		return all, fmt.Errorf("no dataset files given")
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return all, err
		}
		d, err := core.ReadDataset(f)
		f.Close()
		if err != nil {
			return all, fmt.Errorf("%s: %w", p, err)
		}
		all.Merge(d)
	}
	return all, nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	out := fs.String("o", "model.json", "output model file")
	minSamples := fs.Int("min-samples", 0, "drop metrics with fewer training samples")
	workers := fs.Int("workers", 0, "concurrent per-metric fits (0 = GOMAXPROCS; output is identical for any count)")
	verbose := fs.Bool("v", false, "report metrics that were skipped during training and why")
	hierarchy := fs.Bool("hierarchy", false, "attach the default L1/L2/L3/DRAM hierarchy so analyze reports the binding memory level")
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := readDatasets(fs.Args())
	if err != nil {
		return err
	}
	ens, rep, err := core.TrainContext(context.Background(), data, core.TrainOptions{
		WorkUnit:   "instructions",
		TimeUnit:   "cycles",
		MinSamples: *minSamples,
		Workers:    *workers,
	})
	if err != nil {
		if rep != nil {
			fmt.Fprintln(os.Stderr, "spire:", rep.Summary())
		}
		return err
	}
	if *verbose {
		// The skip report is a diagnostic, not output: stderr.
		fmt.Fprintln(os.Stderr, "spire train:", rep.Summary())
	}
	if *hierarchy {
		// The level mapping is evaluation-time metadata: levels whose
		// traffic metric the model (or a workload) never measured simply
		// don't report, so attaching the default map is always safe.
		ens.Hierarchy = &core.HierarchyModel{Levels: core.DefaultHierarchyLevels()}
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := ens.Save(f); err != nil {
		return err
	}
	fmt.Printf("trained %d rooflines from %d samples -> %s\n", len(ens.Rooflines), data.Len(), *out)
	return f.Close()
}

func loadModel(path string) (*core.Ensemble, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadEnsemble(f)
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "trained model file")
	top := fs.Int("top", 10, "number of candidate bottleneck metrics to print")
	jsonOut := fs.Bool("json", false, "print the estimation as compact JSON and nothing else")
	interpret := fs.Bool("interpret", false, "print the interpreted bottleneck-pool report")
	timeline := fs.Bool("timeline", false, "print the per-window bottleneck timeline")
	htmlOut := fs.String("html", "", "write a self-contained HTML report to this file")
	remote := fs.String("remote", "", "estimate via a running `spire serve` at this base URL instead of a local model")
	tenant := fs.String("tenant", "", "tenant identity sent with -remote requests (X-Spire-Tenant)")
	wireFmt := fs.String("wire", "json", "transport encoding for -remote requests: json or bin (SPB1 binary)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		ens     *core.Ensemble
		est     *core.Estimation
		modelID string
		err     error
	)
	if *remote != "" {
		// Remote mode ships the samples to the service; the reports that
		// need the model's internals stay local-only.
		if *interpret || *timeline || *htmlOut != "" {
			return fmt.Errorf("-interpret, -timeline and -html need the local model; they are not available with -remote")
		}
		data, rerr := readDatasets(fs.Args())
		if rerr != nil {
			return rerr
		}
		c, cerr := newRemoteClient(*remote, *tenant)
		if cerr != nil {
			return cerr
		}
		est, modelID, err = remoteEstimate(context.Background(), c, data, *wireFmt)
		if err != nil {
			return err
		}
		if *jsonOut {
			// Same contract as local -json: exactly the core.Estimation
			// encoding, byte for byte (the service serves the identical
			// bytes the local engine computes for the same model).
			raw, merr := json.Marshal(est)
			if merr != nil {
				return merr
			}
			fmt.Println(string(raw))
			return nil
		}
		fmt.Printf("measured throughput: %.3f (served by model %s)\n", est.MeasuredThroughput, modelID[:min(12, len(modelID))])
		fmt.Printf("SPIRE max-throughput estimate: %.3f (min over %d metrics)\n\n",
			est.MaxThroughput, len(est.PerMetric))
		printHierarchy(est)
		if err := renderRanking(est, *top); err != nil {
			return err
		}
		return printCombined(est)
	}

	ens, err = loadModel(*modelPath)
	if err != nil {
		return err
	}
	data, err := readDatasets(fs.Args())
	if err != nil {
		return err
	}
	est, err = engine.Default().Estimate(context.Background(), ens, data)
	if err != nil {
		return err
	}
	// Datasets carrying scheduler events get the partitioned on/off-CPU
	// view merged in — before -json so local and served bytes agree.
	if len(data.Sched) > 0 {
		combined, cerr := analysis.Combine(est, data.Sched)
		if cerr != nil {
			return cerr
		}
		est.Combined = combined
	}
	if *jsonOut {
		// Machine-readable mode: exactly the core.Estimation JSON, byte
		// for byte what `spire serve` returns in its "estimation" field
		// for the same samples and model.
		raw, err := json.Marshal(est)
		if err != nil {
			return err
		}
		fmt.Println(string(raw))
		return nil
	}
	fmt.Printf("measured throughput: %.3f %s/%s\n", est.MeasuredThroughput, ens.WorkUnit, ens.TimeUnit)
	fmt.Printf("SPIRE max-throughput estimate: %.3f (min over %d metrics)\n\n",
		est.MaxThroughput, len(est.PerMetric))
	printHierarchy(est)
	if err := renderRanking(est, *top); err != nil {
		return err
	}
	if err := printCombined(est); err != nil {
		return err
	}
	if *interpret {
		rep, err := analysis.Analyze(est, analysis.Options{MaxPool: *top, Model: ens})
		if err != nil {
			return err
		}
		fmt.Println()
		if err := rep.Render(os.Stdout); err != nil {
			return err
		}
		if best, ok := analysis.BestSingleRelief(est); ok {
			fmt.Printf("\nwhat-if: relieving %s alone would raise the bound to %.3f (%+.0f%%)\n",
				best.Metric, best.NewBound, 100*best.Uplift)
		} else {
			fmt.Println("\nwhat-if: no single-metric relief raises the bound (several metrics tie at the bound)")
		}
	}
	if *timeline {
		tl, err := analysis.Timeline(ens, data)
		if err != nil {
			return err
		}
		fmt.Println()
		if err := analysis.RenderTimeline(os.Stdout, tl); err != nil {
			return err
		}
	}
	if *htmlOut != "" {
		page, err := htmlreport.AnalysisPage("SPIRE analysis", ens, data, *top)
		if err != nil {
			return err
		}
		f, err := os.Create(*htmlOut)
		if err != nil {
			return err
		}
		if err := page.Render(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nwrote HTML report to %s\n", *htmlOut)
	}
	return nil
}

// printHierarchy prints the memory-hierarchy verdict when the model
// carried one and the workload measured at least two levels.
func printHierarchy(est *core.Estimation) {
	h := est.Hierarchy
	if h == nil {
		return
	}
	fmt.Printf("memory hierarchy: bound at %s (%s, est %.3f across %d measured levels)\n",
		h.BindingLevel, h.BindingMetric, h.BindingEstimate, len(h.Levels))
	for _, s := range h.Surfaces {
		if s.Binding {
			fmt.Printf("  surface %s binds: ceiling %.3f at %s = %.4g\n",
				s.Name, s.Ceiling, s.Param, s.ParamValue)
		}
	}
	if h.BoundThroughput < est.MaxThroughput {
		fmt.Printf("  hierarchy-refined bound: %.3f (flat bound %.3f)\n", h.BoundThroughput, est.MaxThroughput)
	}
	fmt.Println()
}

// printCombined prints the on/off-CPU partition and merged bottleneck
// ranking when the estimation carries one (the dataset had scheduler
// events). A nil Combined prints nothing, so counter-only analyses keep
// their exact historical output.
func printCombined(est *core.Estimation) error {
	if est.Combined == nil {
		return nil
	}
	fmt.Println()
	return analysis.RenderCombined(os.Stdout, est.Combined)
}

// renderRanking prints the candidate-bottleneck table shared by local
// and remote analyze modes.
func renderRanking(est *core.Estimation, top int) error {
	t := report.Table{
		Title:   fmt.Sprintf("Top %d candidate bottleneck metrics (lowest estimates first)", top),
		Headers: []string{"Rank", "Mean est.", "Abbr", "Metric", "Closest TMA area", "Samples"},
	}
	for i, m := range est.TopMetrics(top) {
		abbr, area := "?", "?"
		if ev, ok := pmu.Lookup(m.Metric); ok {
			abbr, area = ev.Abbr, ev.Area.String()
		}
		t.AddRow(fmt.Sprintf("%d", i+1), fmt.Sprintf("%.3f", m.MeanEstimate),
			abbr, m.Metric, area, fmt.Sprintf("%d", m.Samples))
	}
	return t.Render(os.Stdout)
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "trained model file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ens, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	fmt.Printf("SPIRE ensemble: %d rooflines, throughput unit %s/%s\n",
		len(ens.Rooflines), ens.WorkUnit, ens.TimeUnit)
	t := report.Table{
		Headers: []string{"Metric", "Train samples", "Peak I", "Peak P", "Left pts", "Right pts", "Tail"},
	}
	for _, name := range ens.Metrics() {
		r := ens.Rooflines[name]
		peak := r.Peak()
		t.AddRow(name,
			fmt.Sprintf("%d", r.TrainingSamples),
			fmt.Sprintf("%.3g", peak.X),
			fmt.Sprintf("%.3g", peak.Y),
			fmt.Sprintf("%d", len(r.Left)),
			fmt.Sprintf("%d", len(r.Right)),
			fmt.Sprintf("%.3g", r.TailY),
		)
	}
	return t.Render(os.Stdout)
}
