package stream

// Stream-tier hierarchy differentials: a window estimated against a
// hierarchical model carries the same verdict the batch path computes
// over the in-window samples, Truncate never perturbs it, and a
// single-level hierarchy streams results byte-identical to the flat
// model on every window.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"spire/internal/core"
	"spire/internal/ingest"
)

// hierStreamModel builds the four-level bandwidth-roofline ensemble;
// levels trims the hierarchy (0 = flat).
func hierStreamModel(t testing.TB, levels int) *core.Ensemble {
	t.Helper()
	betas := map[string]float64{"L1": 64, "L2": 16, "L3": 8, "DRAM": 2}
	ens := &core.Ensemble{
		Rooflines: map[string]*core.Roofline{},
		WorkUnit:  "instructions",
		TimeUnit:  "cycles",
	}
	all := core.DefaultHierarchyLevels()
	for _, lv := range all {
		r, err := core.BandwidthRoofline(lv.Metric, 4, betas[lv.Level], 64)
		if err != nil {
			t.Fatal(err)
		}
		ens.Rooflines[lv.Metric] = r
	}
	if levels > 0 {
		ens.Hierarchy = &core.HierarchyModel{Levels: all[:levels]}
	}
	return ens
}

// hierIntervalSamples emits one interval of hierarchy-level counters
// with randomized magnitudes (occasionally dropping a level entirely).
func hierIntervalSamples(rng *rand.Rand, window int) []core.Sample {
	const cycles, insts = 1e6, 2e6
	out := make([]core.Sample, 0, 4)
	for _, lv := range core.DefaultHierarchyLevels() {
		if rng.Intn(5) == 0 {
			continue
		}
		out = append(out, core.Sample{
			Metric: lv.Metric,
			T:      cycles,
			W:      insts,
			M:      float64(rng.Intn(500_000)),
			Window: window,
		})
	}
	return out
}

// TestStreamHierarchyMatchesBatch slides randomized windows over a
// hierarchical model and requires every emitted estimation — binding
// verdict included — to equal the batch one byte for byte.
func TestStreamHierarchyMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(515))
	ctx := context.Background()
	ens := hierStreamModel(t, 4)
	hierarchical := 0
	for si := 0; si < 8; si++ {
		span := 1 + rng.Intn(6)
		rng.Intn(4) // once the worker count; still drawn so later draws are unchanged
		est := NewEstimator(Config{
			WindowIntervals: span,
			Model:           StaticModel(ens, fmt.Sprintf("hier-%d", si)),
		}, NewInstruments(nil))
		w := NewWindower(span)
		var history []ingest.Interval
		for i := 1; i <= 25; i++ {
			iv := ingest.Interval{TS: float64(i), Window: i, Samples: hierIntervalSamples(rng, i)}
			history = append(history, iv)
			got := est.Estimate(ctx, w.Push(iv))

			var d core.Dataset
			for _, p := range history {
				if p.Window > i-span {
					d.Add(p.Samples...)
				}
			}
			want := new(core.Estimation)
			werr := ens.BatchEstimateInto(ctx, core.IndexWorkload(d), core.EstimateOptions{}, want)
			if werr != nil {
				if got.Estimation != nil {
					t.Fatalf("stream %d window %d: batch says %v, stream emitted %+v", si, i, werr, got)
				}
				continue
			}
			if got.Estimation == nil {
				t.Fatalf("stream %d window %d: stream errored (%q) where batch succeeded", si, i, got.Error)
			}
			if gb, wb := marshal(t, got.Estimation), marshal(t, want); gb != wb {
				t.Fatalf("stream %d window %d: estimation diverges:\nstream: %s\nbatch:  %s", si, i, gb, wb)
			}
			if h := got.Estimation.Hierarchy; h != nil {
				hierarchical++
				// Truncating the ranking must not perturb the verdict.
				tr := got.Truncate(1)
				if tr.Estimation.Hierarchy != h {
					t.Fatalf("stream %d window %d: Truncate rewrote the hierarchy", si, i)
				}
			}
		}
	}
	if hierarchical < 50 {
		t.Fatalf("only %d hierarchical windows exercised, need >= 50", hierarchical)
	}
}

// TestStreamSingleLevelParity: the degenerate freeze at the stream tier.
// A single-level hierarchy model must emit results byte-identical to the
// flat model on every window of every stream.
func TestStreamSingleLevelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(1606))
	ctx := context.Background()
	for si := 0; si < 10; si++ {
		flat := trainStreamEnsemble(t, rng)
		one := &core.Ensemble{
			Rooflines: flat.Rooflines,
			WorkUnit:  flat.WorkUnit,
			TimeUnit:  flat.TimeUnit,
			Hierarchy: &core.HierarchyModel{Levels: []core.HierarchyLevel{{
				Level:  "L2",
				Metric: diffNames[rng.Intn(len(diffNames))],
			}}},
		}
		span := 1 + rng.Intn(6)
		rng.Intn(4) // once the worker count; still drawn so later draws are unchanged
		cfg := Config{WindowIntervals: span}
		fCfg, oCfg := cfg, cfg
		fCfg.Model = StaticModel(flat, "m")
		oCfg.Model = StaticModel(one, "m")
		fEst := NewEstimator(fCfg, NewInstruments(nil))
		oEst := NewEstimator(oCfg, NewInstruments(nil))
		fw, ow := NewWindower(span), NewWindower(span)
		for i := 1; i <= 30; i++ {
			iv := ingest.Interval{TS: float64(i), Window: i, Samples: randIntervalSamples(rng, i)}
			fGot := fEst.Estimate(ctx, fw.Push(iv))
			oGot := oEst.Estimate(ctx, ow.Push(iv))
			if oGot.Estimation != nil && oGot.Estimation.Hierarchy != nil {
				t.Fatalf("stream %d window %d: single-level hierarchy leaked into the stream", si, i)
			}
			if fb, ob := marshal(t, fGot), marshal(t, oGot); fb != ob {
				t.Fatalf("stream %d window %d: single-level result diverged:\nflat: %s\none:  %s", si, i, ob, fb)
			}
		}
	}
}
