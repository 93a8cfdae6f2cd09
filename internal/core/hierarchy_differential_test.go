package core

// Backward-compat differential suite for the hierarchy extension: a model
// carrying a single-level hierarchy is semantically a flat roofline model
// (a binding level needs at least two levels to compare), so its output
// must be BYTE-identical to the same model with no hierarchy at all, on
// every workload, through both the scalar and the columnar batch paths.
// This is the freeze that lets hierarchical models roll out without
// perturbing a single existing consumer.

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"
)

// singleLevelHierarchy attaches a randomized one-level hierarchy (and
// sometimes surfaces, which a degenerate estimate must ignore) to a copy
// of the flat ensemble. The copy shares the fitted rooflines but has its
// own lazy evaluator state.
func singleLevelHierarchy(rng *rand.Rand, flat *Ensemble) *Ensemble {
	metrics := append(flat.Metrics(), "unmodeled.event")
	h := &HierarchyModel{
		Levels: []HierarchyLevel{{
			Level:  []string{"L1", "L2", "DRAM", "HBM"}[rng.Intn(4)],
			Metric: metrics[rng.Intn(len(metrics))],
		}},
	}
	if rng.Intn(2) == 0 {
		h.Surfaces = []Surface{{
			Name:  "sparsity",
			Param: metrics[rng.Intn(len(metrics))],
			Points: []SurfacePoint{
				{Param: 0, Ceiling: rng.Float64() * 4},
				{Param: rng.Float64(), Ceiling: rng.Float64()},
			},
		}}
	}
	return &Ensemble{
		Rooflines: flat.Rooflines,
		WorkUnit:  flat.WorkUnit,
		TimeUnit:  flat.TimeUnit,
		Hierarchy: h,
	}
}

func marshalEstimation(t *testing.T, est *Estimation) []byte {
	t.Helper()
	buf, err := json.Marshal(est)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestSingleLevelHierarchyByteParity is the ≥2000-model freeze: across
// randomized trained models, random single-level hierarchies and random
// workloads, the hierarchical model's estimation must serialize to
// exactly the bytes the flat model produces — via Estimate and via
// BatchEstimateInto at every worker count 1–4, including reused
// Estimation values.
func TestSingleLevelHierarchyByteParity(t *testing.T) {
	rng := rand.New(rand.NewSource(20250808))
	ctx := context.Background()

	var hierEst, flatEst Estimation
	models := 0
	for models < 2000 {
		flat, err := Train(randMultiMetricDataset(rng, 1+rng.Intn(4)), TrainOptions{})
		if err != nil {
			continue
		}
		models++
		hier := singleLevelHierarchy(rng, flat)
		w := randWorkload(rng)
		ix := IndexWorkload(w)

		wantEst, wantErr := estimate(flat, w)
		gotEst, gotErr := estimate(hier, w)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("model %d: Estimate error mismatch: %v vs %v", models, gotErr, wantErr)
		}
		if wantErr == nil {
			if gotEst.Hierarchy != nil {
				t.Fatalf("model %d: single-level hierarchy leaked into the estimate", models)
			}
			want := marshalEstimation(t, wantEst)
			got := marshalEstimation(t, gotEst)
			if !bytes.Equal(got, want) {
				t.Fatalf("model %d: Estimate bytes diverged\n hier: %s\n flat: %s", models, got, want)
			}
		}

		hErr := hier.BatchEstimateInto(ctx, ix, EstimateOptions{}, &hierEst)
		fErr := flat.BatchEstimateInto(ctx, ix, EstimateOptions{}, &flatEst)
		if (hErr == nil) != (fErr == nil) {
			t.Fatalf("model %d: batch error mismatch: %v vs %v", models, hErr, fErr)
		}
		if hErr != nil {
			continue
		}
		got := marshalEstimation(t, &hierEst)
		want := marshalEstimation(t, &flatEst)
		if !bytes.Equal(got, want) {
			t.Fatalf("model %d: batch bytes diverged\n hier: %s\n flat: %s", models, got, want)
		}
	}
}

// TestSingleLevelHierarchyModelRoundTrip: a single-level hierarchy
// survives model save/load (the model keeps its hierarchy — only the
// estimation output degenerates to flat).
func TestSingleLevelHierarchyModelRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	flat, err := Train(randMultiMetricDataset(rng, 3), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hier := singleLevelHierarchy(rng, flat)
	var buf bytes.Buffer
	if err := hier.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadEnsemble(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Hierarchy == nil || len(back.Hierarchy.Levels) != 1 {
		t.Fatalf("hierarchy lost in round trip: %+v", back.Hierarchy)
	}
}
