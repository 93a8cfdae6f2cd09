package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
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

// indexesEqual asserts that a workload index holds exactly the valid
// samples of want: the metrics Dataset.ByMetric groups, each metric's
// T/W/window/Sample.Intensity columns in dataset order, and contribution
// IDs that name each sample's own period — two samples share an ID
// exactly when they share (T, W, window), and the ID tables hold one
// entry per distinct period.
func indexesEqual(t *testing.T, got *WorkloadIndex, want Dataset) {
	t.Helper()
	groups := want.ByMetric()
	metrics := make([]string, 0, len(groups))
	for m := range groups {
		metrics = append(metrics, m)
	}
	sort.Strings(metrics)
	if !slices.Equal(got.Metrics(), metrics) {
		t.Fatalf("metrics %v != %v", got.Metrics(), metrics)
	}
	if len(got.uniqT) != len(got.uniqW) {
		t.Fatalf("ID tables diverge: %d T entries, %d W entries", len(got.uniqT), len(got.uniqW))
	}
	idOf := make(map[measureKey]uint32)
	keyOf := make(map[uint32]measureKey)
	n := 0
	for _, m := range metrics {
		g, ss := got.groups[m], groups[m]
		if len(g.t) != len(ss) || len(g.w) != len(ss) || len(g.intens) != len(ss) ||
			len(g.window) != len(ss) || len(g.contribID) != len(ss) {
			t.Fatalf("metric %s: column lengths t=%d w=%d intens=%d window=%d contribID=%d, want %d",
				m, len(g.t), len(g.w), len(g.intens), len(g.window), len(g.contribID), len(ss))
		}
		for i, s := range ss {
			if g.t[i] != s.T || g.w[i] != s.W || g.window[i] != s.Window {
				t.Fatalf("metric %s sample %d: (T, W, window) = (%g, %g, %d), want (%g, %g, %d)",
					m, i, g.t[i], g.w[i], g.window[i], s.T, s.W, s.Window)
			}
			if in := s.Intensity(); g.intens[i] != in && !(math.IsNaN(g.intens[i]) && math.IsNaN(in)) {
				t.Fatalf("metric %s intensity[%d] %g != %g", m, i, g.intens[i], in)
			}
			id := g.contribID[i]
			if int(id) >= len(got.uniqT) {
				t.Fatalf("metric %s sample %d: ID %d outside %d-entry tables", m, i, id, len(got.uniqT))
			}
			if got.uniqT[id] != s.T || got.uniqW[id] != s.W {
				t.Fatalf("metric %s sample %d: ID %d holds (%g, %g), want its own (%g, %g)",
					m, i, id, got.uniqT[id], got.uniqW[id], s.T, s.W)
			}
			k := measureKey{t: s.T, w: s.W, window: s.Window}
			if prev, ok := idOf[k]; ok && prev != id {
				t.Fatalf("metric %s sample %d: period %+v has IDs %d and %d", m, i, k, prev, id)
			}
			if prev, ok := keyOf[id]; ok && prev != k {
				t.Fatalf("metric %s sample %d: ID %d names periods %+v and %+v", m, i, id, prev, k)
			}
			idOf[k], keyOf[id] = id, k
			n++
		}
	}
	if got.Len() != n {
		t.Fatalf("Len %d, want %d valid samples", got.Len(), n)
	}
	if len(got.uniqT) != len(idOf) {
		t.Fatalf("ID tables hold %d entries for %d distinct periods", len(got.uniqT), len(idOf))
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
		indexesEqual(t, inc.Snapshot(), d)
		indexesEqual(t, want, d)
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
		indexesEqual(t, inc.Snapshot(), keep)
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

// TestIndexWorkloadManyMetrics: indexing cost must stay near-linear in
// the number of distinct metrics, whatever order they arrive in. A
// request body can carry ~100k distinct names, and keeping the metric
// list sorted on every insertion would be quadratic (over 10 s of
// memmove); the bound is loose enough for a loaded host and -race.
func TestIndexWorkloadManyMetrics(t *testing.T) {
	const n = 100_000
	d := Dataset{Samples: make([]Sample, n)}
	for i := range d.Samples {
		d.Samples[i] = Sample{Metric: fmt.Sprintf("m%07d", n-i), T: 1, W: float64(1 + i%7), M: 1, Window: i % 3}
	}
	start := time.Now()
	ix := IndexWorkload(d)
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("indexing %d descending metric names took %v", n, el)
	}
	got := ix.Metrics()
	if len(got) != n || ix.Len() != n || !sort.StringsAreSorted(got) {
		t.Fatalf("got %d metrics (sorted %v), Len %d; want %d sorted", len(got), sort.StringsAreSorted(got), ix.Len(), n)
	}
	if len(ix.uniqT) != 7*3 {
		t.Fatalf("%d distinct periods, want 21", len(ix.uniqT))
	}
}

// TestIncrementalIndexOutOfOrderNames: names added out of order, with
// evictions in between, still snapshot in sorted order.
func TestIncrementalIndexOutOfOrderNames(t *testing.T) {
	inc := NewIncrementalIndex()
	inc.Add(Sample{Metric: "c", T: 1, W: 1, M: 1, Window: 1}, Sample{Metric: "a", T: 1, W: 1, M: 1, Window: 2})
	inc.Add(Sample{Metric: "d", T: 1, W: 1, M: 1, Window: 2}, Sample{Metric: "b", T: 1, W: 1, M: 1, Window: 2})
	if got := inc.Metrics(); !reflect.DeepEqual(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("metrics %v before eviction", got)
	}
	inc.EvictBefore(2)
	inc.Add(Sample{Metric: "aa", T: 1, W: 1, M: 1, Window: 3})
	want := []string{"a", "aa", "b", "d"}
	if got := inc.Snapshot().Metrics(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot metrics %v, want %v", got, want)
	}
	if got := inc.Metrics(); !reflect.DeepEqual(got, want) {
		t.Fatalf("metrics %v after snapshot, want %v", got, want)
	}
}
