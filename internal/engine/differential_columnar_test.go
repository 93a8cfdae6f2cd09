package engine

// Differential suite for the columnar estimation core and the SPB1
// binary wire format. The frozen referenceEstimate in
// differential_test.go stays the oracle; this file widens the set of
// implementations pinned against it — the columnar batch path with and
// without result reuse, the engine's indexed entry point, incremental
// windowed snapshots, and a binary-wire round trip of the result — over
// >= 2000 fresh randomized model/workload pairs. Byte-identical JSON is
// the bar everywhere; run under -race in the verify gate.

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"spire/internal/core"
	"spire/internal/wire"
)

// checkColumnarIdentical pins every columnar consumer of one
// model/workload pair against the frozen serial reference.
func checkColumnarIdentical(t *testing.T, e *Engine, ens *core.Ensemble, d core.Dataset, reused *core.Estimation, tag string) {
	t.Helper()
	want, werr := referenceEstimate(ens, d)
	ix := core.IndexWorkload(d)

	// Batch path, into a fresh Estimation.
	got := new(core.Estimation)
	gerr := ens.BatchEstimateInto(context.Background(), ix, core.EstimateOptions{}, got)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%s: reference err=%v, batch err=%v", tag, werr, gerr)
	}
	if werr == nil {
		if gotJSON, wantJSON := estJSON(t, got), estJSON(t, want); gotJSON != wantJSON {
			t.Fatalf("%s: BatchEstimateInto (fresh) diverges\ngot:  %s\nwant: %s", tag, gotJSON, wantJSON)
		}
	}

	// The zero-allocation reuse path: the SAME Estimation value is handed
	// back in across every pair of the run, so stale per-metric rows,
	// coverage lists and mins from the previous workload must all be
	// overwritten.
	rerr := ens.BatchEstimateInto(context.Background(), ix, core.EstimateOptions{}, reused)
	if (werr != nil) != (rerr != nil) {
		t.Fatalf("%s: reference err=%v, reuse err=%v", tag, werr, rerr)
	}
	if werr == nil {
		if gotJSON, wantJSON := estJSON(t, reused), estJSON(t, want); gotJSON != wantJSON {
			t.Fatalf("%s: BatchEstimateInto (reused) diverges\ngot:  %s\nwant: %s", tag, gotJSON, wantJSON)
		}
	}

	// Engine indexed path — the serving tier's hot loop.
	eix, _ := e.Index(d.Samples)
	got, gerr = e.EstimateIndexed(context.Background(), ens, eix, core.EstimateOptions{})
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%s: reference err=%v, indexed err=%v", tag, werr, gerr)
	}
	if werr == nil {
		if gotJSON, wantJSON := estJSON(t, got), estJSON(t, want); gotJSON != wantJSON {
			t.Fatalf("%s: EstimateIndexed diverges\ngot:  %s\nwant: %s", tag, gotJSON, wantJSON)
		}
	}

	// Incremental path: build the same workload by appending in chunks,
	// snapshot, estimate. The snapshot merge path dedups measured periods
	// with the map fallback rather than contribution IDs — the
	// differential pins both dedup implementations to the same bytes.
	inc := core.NewIncrementalIndex()
	for off := 0; off < len(d.Samples); {
		n := 1 + off%3
		if off+n > len(d.Samples) {
			n = len(d.Samples) - off
		}
		inc.Add(d.Samples[off : off+n]...)
		off += n
	}
	sgot := new(core.Estimation)
	serr := ens.BatchEstimateInto(context.Background(), inc.Snapshot(), core.EstimateOptions{}, sgot)
	if (werr != nil) != (serr != nil) {
		t.Fatalf("%s: reference err=%v, snapshot err=%v", tag, werr, serr)
	}
	if werr == nil {
		if gotJSON, wantJSON := estJSON(t, sgot), estJSON(t, want); gotJSON != wantJSON {
			t.Fatalf("%s: incremental snapshot diverges\ngot:  %s\nwant: %s", tag, gotJSON, wantJSON)
		}
	}

	if werr != nil {
		return
	}

	// Binary wire round trip: an estimation that crosses SPB1 and comes
	// back must re-marshal to the identical JSON the server would have
	// sent — the client's -wire bin mode changes transport bytes only.
	frame := wire.AppendEstimateResponse(nil, &wire.EstimateResponse{Model: "m", Estimation: want})
	back, err := wire.DecodeEstimateResponse(frame)
	if err != nil {
		t.Fatalf("%s: wire round trip: %v", tag, err)
	}
	if gotJSON, wantJSON := estJSON(t, back.Estimation), estJSON(t, want); gotJSON != wantJSON {
		t.Fatalf("%s: wire round trip diverges\ngot:  %s\nwant: %s", tag, gotJSON, wantJSON)
	}
}

// checkWindowedIdentical slices the workload per window and pins the
// incremental eviction path: after evicting everything before window w,
// the snapshot estimate must match the reference over the surviving
// samples.
func checkWindowedIdentical(t *testing.T, ens *core.Ensemble, d core.Dataset, tag string) {
	t.Helper()
	// EvictBefore's binary search relies on nondecreasing window tags,
	// the order the streaming pipeline feeds by construction — replay the
	// workload in that order (stable, so same-window samples keep their
	// arrival order and the reference sees the same per-metric sequences).
	samples := append([]core.Sample(nil), d.Samples...)
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].Window < samples[j].Window })
	maxW := 0
	for _, s := range samples {
		if s.Window > maxW {
			maxW = s.Window
		}
	}
	inc := core.NewIncrementalIndex()
	inc.Add(samples...)
	for w := 0; w <= maxW+1; w++ {
		inc.EvictBefore(w)
		var wd core.Dataset
		for _, s := range samples {
			if s.Window >= w {
				wd.Add(s)
			}
		}
		want, werr := referenceEstimate(ens, wd)
		got := new(core.Estimation)
		gerr := ens.BatchEstimateInto(context.Background(), inc.Snapshot(), core.EstimateOptions{}, got)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%s w=%d: reference err=%v, evicted snapshot err=%v", tag, w, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if gotJSON, wantJSON := estJSON(t, got), estJSON(t, want); gotJSON != wantJSON {
			t.Fatalf("%s w=%d: evicted snapshot diverges\ngot:  %s\nwant: %s", tag, w, gotJSON, wantJSON)
		}
	}
}

// TestDifferentialColumnarRandomized is the columnar-core differential:
// >= 2000 randomized model/workload pairs, every columnar entry point
// byte-identical to the frozen scalar reference.
func TestDifferentialColumnarRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(13371337))
	e := New(Options{})
	var reused core.Estimation
	pairs := 0
	for pairs < 2000 {
		ens := randEstimationModel(t, rng)
		if ens == nil {
			continue
		}
		d := randEstimationWorkload(rng)
		checkColumnarIdentical(t, e, ens, d, &reused, "columnar")
		if pairs%50 == 0 {
			checkWindowedIdentical(t, ens, d, "windowed")
		}
		pairs++
	}
}

// TestDifferentialColumnarRequestRoundTrip pins the other direction of
// the wire: a workload that crosses SPB1 as an estimate request must
// produce the byte-identical estimation after decode.
func TestDifferentialColumnarRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	pairs := 0
	for pairs < 200 {
		ens := randEstimationModel(t, rng)
		if ens == nil {
			continue
		}
		d := randEstimationWorkload(rng)
		want, werr := referenceEstimate(ens, d)

		frame := wire.AppendEstimateRequest(nil, &wire.EstimateRequest{Samples: d.Samples})
		req, err := wire.DecodeEstimateRequest(frame)
		if err != nil {
			t.Fatalf("request round trip: %v", err)
		}
		var rd core.Dataset
		rd.Add(req.Samples...)
		got, gerr := referenceEstimate(ens, rd)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("round-tripped workload err=%v, want %v", gerr, werr)
		}
		if werr == nil {
			if gotJSON, wantJSON := estJSON(t, got), estJSON(t, want); gotJSON != wantJSON {
				t.Fatalf("round-tripped workload diverges\ngot:  %s\nwant: %s", gotJSON, wantJSON)
			}
		}
		pairs++
	}
}
