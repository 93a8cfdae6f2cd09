package core

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// windowedWorkload builds a workload whose samples carry nondecreasing
// window tags 1..windows, mimicking interval ingestion.
func windowedWorkload(rng *rand.Rand, windows int) Dataset {
	names := []string{"alpha", "beta", "gamma", "delta", "unmodeled.event"}
	var d Dataset
	for w := 1; w <= windows; w++ {
		n := rng.Intn(8)
		for i := 0; i < n; i++ {
			s := Sample{
				Metric: names[rng.Intn(len(names))],
				T:      float64(1 + rng.Intn(6)),
				W:      float64(rng.Intn(30)),
				M:      float64(rng.Intn(6)),
				Window: w,
			}
			if rng.Intn(12) == 0 {
				s.T = -s.T // invalid, must be dropped
			}
			d.Add(s)
		}
	}
	return d
}

// indexesEqual asserts that two workload indexes hold identical contents.
func indexesEqual(t *testing.T, got, want *WorkloadIndex) {
	t.Helper()
	if !reflect.DeepEqual(got.Metrics(), want.Metrics()) {
		t.Fatalf("metrics %v != %v", got.Metrics(), want.Metrics())
	}
	for _, m := range want.Metrics() {
		g, w := got.groups[m], want.groups[m]
		if !reflect.DeepEqual(g.t, w.t) || !reflect.DeepEqual(g.w, w.w) ||
			!reflect.DeepEqual(g.window, w.window) {
			t.Fatalf("metric %s columns diverge:\n got %+v %+v %+v\nwant %+v %+v %+v",
				m, g.t, g.w, g.window, w.t, w.w, w.window)
		}
		for i := range w.intens {
			if g.intens[i] != w.intens[i] &&
				!(math.IsNaN(g.intens[i]) && math.IsNaN(w.intens[i])) {
				t.Fatalf("metric %s intensity[%d] %g != %g", m, i, g.intens[i], w.intens[i])
			}
		}
	}
}

// TestIncrementalIndexMatchesIndexWorkload: adding samples in dataset
// order must reproduce IndexWorkload exactly, for many random workloads.
func TestIncrementalIndexMatchesIndexWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for it := 0; it < 200; it++ {
		d := windowedWorkload(rng, 1+rng.Intn(6))
		inc := NewIncrementalIndex()
		added := inc.Add(d.Samples...)
		want := IndexWorkload(d)
		if added != want.Len() || inc.Len() != want.Len() {
			t.Fatalf("Add kept %d (Len %d), IndexWorkload holds %d", added, inc.Len(), want.Len())
		}
		indexesEqual(t, inc.Snapshot(), want)
	}
}

// TestIncrementalIndexEviction: evicting a window prefix must leave
// exactly the index a fresh IndexWorkload builds over the survivors, and
// metrics without survivors must vanish.
func TestIncrementalIndexEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for it := 0; it < 200; it++ {
		d := windowedWorkload(rng, 2+rng.Intn(8))
		inc := NewIncrementalIndex()
		inc.Add(d.Samples...)
		cut := 1 + rng.Intn(8)
		before := inc.Len()
		evicted := inc.EvictBefore(cut)
		keep := d.Filter(func(s Sample) bool { return s.Window >= cut })
		want := IndexWorkload(keep)
		if inc.Len() != want.Len() || before-evicted != want.Len() {
			t.Fatalf("cut=%d: Len %d (evicted %d of %d), want %d",
				cut, inc.Len(), evicted, before, want.Len())
		}
		indexesEqual(t, inc.Snapshot(), want)
	}
}

// TestIncrementalIndexSnapshotImmutable: a snapshot taken mid-stream must
// keep estimating identically while the live index grows and evicts.
func TestIncrementalIndexSnapshotImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ens, err := Train(randMultiMetricDataset(rng, 4), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	d := windowedWorkload(rng, 4)
	inc := NewIncrementalIndex()
	inc.Add(d.Samples...)
	snap := inc.Snapshot()
	baseline, err := ens.BatchEstimate(ctx, snap, EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}
	for w := 5; w <= 40; w++ {
		more := windowedWorkload(rng, 1)
		for i := range more.Samples {
			more.Samples[i].Window = w
		}
		inc.Add(more.Samples...)
		inc.EvictBefore(w - 2)
		est, err := ens.BatchEstimate(ctx, snap, EstimateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(est)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("window %d mutated a published snapshot:\n got %s\nwant %s", w, got, want)
		}
	}
}

// TestIncrementalIndexInvalidAndAccessors: invalid samples are dropped on
// Add, and the accessors stay consistent through eviction to empty.
func TestIncrementalIndexInvalidAndAccessors(t *testing.T) {
	inc := NewIncrementalIndex()
	kept := inc.Add(
		Sample{Metric: "b", T: 1, W: 2, M: 1, Window: 1},
		Sample{Metric: "a", T: -1, W: 2, M: 1, Window: 1},
		Sample{Metric: "a", T: 2, W: math.NaN(), M: 1, Window: 1},
		Sample{Metric: "a", T: 1, W: 4, M: 2, Window: 2},
	)
	if kept != 2 || inc.Len() != 2 {
		t.Fatalf("kept %d (Len %d), want 2", kept, inc.Len())
	}
	if got := inc.Metrics(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("metrics %v, want [a b]", got)
	}
	if n := inc.EvictBefore(2); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if got := inc.Metrics(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("metrics after eviction %v, want [a]", got)
	}
	if n := inc.EvictBefore(100); n != 1 || inc.Len() != 0 || len(inc.Metrics()) != 0 {
		t.Fatalf("final eviction: n=%d Len=%d metrics=%v", n, inc.Len(), inc.Metrics())
	}
	if inc.Add(Sample{Metric: "c", T: 1, W: 1, M: 1, Window: 101}) != 1 {
		t.Fatal("index unusable after draining")
	}
}
