package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"spire/internal/analysis"
	"spire/internal/core"
	"spire/internal/engine"
	"spire/internal/pmu"
	"spire/internal/report"
)

// diffResult is the -json output of `spire diff`: both estimations in
// core's canonical encoding plus the derived movement summary, so scripts
// do not have to recompute speedups or re-rank.
type diffResult struct {
	Model   string           `json:"model,omitempty"`
	Before  *core.Estimation `json:"before"`
	After   *core.Estimation `json:"after"`
	Speedup float64          `json:"speedup"`
	// BindingBefore/After are the head of each ranking; Relieved reports
	// whether the binding metric moved.
	BindingBefore string `json:"bindingBefore,omitempty"`
	BindingAfter  string `json:"bindingAfter,omitempty"`
	Relieved      bool   `json:"relieved"`
	// BindingLevelBefore/After name the binding memory-hierarchy level
	// when the model carries a hierarchy and the workload measured it
	// (mirrors each estimation's hierarchy verdict; absent otherwise).
	BindingLevelBefore string `json:"bindingLevelBefore,omitempty"`
	BindingLevelAfter  string `json:"bindingLevelAfter,omitempty"`
}

// cmdDiff compares two analyses of (presumably) the same workload before
// and after a change: throughput movement, bound movement, and how the
// bottleneck ranking shifted. This is the workflow the paper motivates —
// relieve the top metric, re-measure, see what binds next. Both
// estimations run on the shared engine under a signal-aware context, so
// ^C during a huge diff aborts promptly with a clean error instead of
// finishing the second estimate.
func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "trained model file")
	top := fs.Int("top", 10, "number of ranked metrics to compare")
	jsonOut := fs.Bool("json", false, "print both estimations and the movement summary as compact JSON")
	remote := fs.String("remote", "", "estimate via a running `spire serve` at this base URL instead of a local model")
	tenant := fs.String("tenant", "", "tenant identity sent with -remote requests (X-Spire-Tenant)")
	wireFmt := fs.String("wire", "json", "transport encoding for -remote requests: json or bin (SPB1 binary)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff needs exactly two dataset files (before, after)")
	}
	before, err := readDatasets(fs.Args()[:1])
	if err != nil {
		return err
	}
	after, err := readDatasets(fs.Args()[1:])
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		estB, estA *core.Estimation
		modelID    string
	)
	if *remote != "" {
		// Both estimations run against the same serving instance; the
		// results are byte-identical to local runs under that model, so
		// diffing remotely means diffing the same numbers.
		c, cerr := newRemoteClient(*remote, *tenant)
		if cerr != nil {
			return cerr
		}
		estB, modelID, err = remoteEstimate(ctx, c, before, *wireFmt)
		if err != nil {
			return fmt.Errorf("before: %w", err)
		}
		var idA string
		estA, idA, err = remoteEstimate(ctx, c, after, *wireFmt)
		if err != nil {
			return fmt.Errorf("after: %w", err)
		}
		if idA != modelID {
			return fmt.Errorf("model hot-swapped mid-diff (%s -> %s); re-run against a stable model", modelID, idA)
		}
	} else {
		ens, lerr := loadModel(*modelPath)
		if lerr != nil {
			return lerr
		}
		if id, ferr := ens.Fingerprint(); ferr == nil {
			modelID = id
		}
		eng := engine.Default()
		opts := core.EstimateOptions{}
		estB, err = eng.Estimate(ctx, ens, before, opts)
		if err != nil {
			return fmt.Errorf("before: %w", err)
		}
		estA, err = eng.Estimate(ctx, ens, after, opts)
		if err != nil {
			return fmt.Errorf("after: %w", err)
		}
		// Mirror analyze: datasets with scheduler events diff their
		// combined on/off-CPU views too.
		if len(before.Sched) > 0 {
			if estB.Combined, err = analysis.Combine(estB, before.Sched); err != nil {
				return fmt.Errorf("before: %w", err)
			}
		}
		if len(after.Sched) > 0 {
			if estA.Combined, err = analysis.Combine(estA, after.Sched); err != nil {
				return fmt.Errorf("after: %w", err)
			}
		}
	}

	speedup := 0.0
	if estB.MeasuredThroughput > 0 {
		speedup = estA.MeasuredThroughput / estB.MeasuredThroughput
	}

	if *jsonOut {
		res := diffResult{Model: modelID, Before: estB, After: estA, Speedup: speedup}
		if len(estB.PerMetric) > 0 {
			res.BindingBefore = estB.PerMetric[0].Metric
		}
		if len(estA.PerMetric) > 0 {
			res.BindingAfter = estA.PerMetric[0].Metric
		}
		res.Relieved = res.BindingBefore != "" && res.BindingAfter != "" &&
			res.BindingBefore != res.BindingAfter
		if estB.Hierarchy != nil {
			res.BindingLevelBefore = estB.Hierarchy.BindingLevel
		}
		if estA.Hierarchy != nil {
			res.BindingLevelAfter = estA.Hierarchy.BindingLevel
		}
		raw, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(raw))
		return nil
	}

	fmt.Printf("measured: %.3f -> %.3f (%.2fx)\n", estB.MeasuredThroughput, estA.MeasuredThroughput, speedup)
	fmt.Printf("SPIRE bound: %.3f -> %.3f\n\n", estB.MaxThroughput, estA.MaxThroughput)

	t := report.Table{
		Title:   fmt.Sprintf("Ranking movement (top %d of the 'after' run)", *top),
		Headers: []string{"After rank", "Before rank", "Abbr", "Metric", "Bound before", "Bound after"},
	}
	beforeBy := make(map[string]core.MetricEstimate, len(estB.PerMetric))
	for _, m := range estB.PerMetric {
		beforeBy[m.Metric] = m
	}
	for i, m := range estA.TopMetrics(*top) {
		abbr := m.Metric
		if ev, ok := pmu.Lookup(m.Metric); ok {
			abbr = ev.Abbr
		}
		beforeRank := "-"
		beforeBound := "-"
		if r := estB.Rank(m.Metric); r > 0 {
			beforeRank = fmt.Sprintf("%d", r)
			beforeBound = fmt.Sprintf("%.3f", beforeBy[m.Metric].MeanEstimate)
		}
		t.AddRow(
			fmt.Sprintf("%d", i+1),
			beforeRank,
			abbr,
			m.Metric,
			beforeBound,
			fmt.Sprintf("%.3f", m.MeanEstimate),
		)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}

	// Call out the binding-metric change explicitly.
	if len(estB.PerMetric) > 0 && len(estA.PerMetric) > 0 {
		b0, a0 := estB.PerMetric[0].Metric, estA.PerMetric[0].Metric
		if b0 == a0 {
			fmt.Printf("\nbinding metric unchanged: %s — the change did not relieve the bottleneck\n", b0)
		} else {
			fmt.Printf("\nbinding metric moved: %s -> %s — the original bottleneck was relieved\n", b0, a0)
		}
	}
	// And the hierarchy-level movement, when both runs have a verdict.
	if estB.Hierarchy != nil && estA.Hierarchy != nil {
		bl, al := estB.Hierarchy.BindingLevel, estA.Hierarchy.BindingLevel
		if bl == al {
			fmt.Printf("binding level unchanged: %s\n", bl)
		} else {
			fmt.Printf("binding level moved: %s -> %s\n", bl, al)
		}
	}
	// Off-CPU movement, when both runs carried scheduler events.
	if cb, ca := estB.Combined, estA.Combined; cb != nil && ca != nil {
		fmt.Printf("off-CPU share: %.1f%% -> %.1f%%\n",
			100*cb.Partition.OffShare(), 100*ca.Partition.OffShare())
		tb, ta := cb.Top(), ca.Top()
		if tb != nil && ta != nil {
			if tb.Detail == ta.Detail {
				fmt.Printf("combined top bottleneck unchanged: %s\n", ta.Detail)
			} else {
				fmt.Printf("combined top bottleneck moved: %s -> %s\n", tb.Detail, ta.Detail)
			}
		}
	}
	return nil
}
