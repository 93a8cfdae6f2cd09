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
	"strings"
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
	baseline := new(Estimation)
	if err := ens.BatchEstimateInto(ctx, snap, EstimateOptions{}, baseline); err != nil {
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
		est := new(Estimation)
		if err := ens.BatchEstimateInto(ctx, snap, EstimateOptions{}, est); err != nil {
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

// oracleIndex is the plain definition of a workload index over live:
// Dataset.ByMetric's groups in name order, and period IDs handed out in
// order of first appearance by a (T, W, window) map walked metric by
// metric, each metric in arrival order.
func oracleIndex(live []Sample) *WorkloadIndex {
	d := Dataset{Samples: live}
	groups := d.ByMetric()
	out := &WorkloadIndex{groups: make(map[string]*indexedMetric)}
	for m := range groups {
		out.metrics = append(out.metrics, m)
	}
	sort.Strings(out.metrics)
	ids := make(map[measureKey]uint32)
	for _, m := range out.metrics {
		g := &indexedMetric{}
		for _, s := range groups[m] {
			k := measureKey{t: s.T, w: s.W, window: s.Window}
			id, ok := ids[k]
			if !ok {
				id = uint32(len(out.uniqT))
				ids[k] = id
				out.uniqT = append(out.uniqT, s.T)
				out.uniqW = append(out.uniqW, s.W)
			}
			g.t = append(g.t, s.T)
			g.w = append(g.w, s.W)
			g.intens = append(g.intens, s.Intensity())
			g.window = append(g.window, s.Window)
			g.contribID = append(g.contribID, id)
		}
		out.groups[m] = g
		out.n += len(g.t)
	}
	return out
}

// sameBits reports whether two float columns are bit-identical.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// indexesIdentical fails unless got and want hold the same metrics, the
// same columns bit for bit, the same contribution IDs and the same ID
// tables.
func indexesIdentical(t *testing.T, got, want *WorkloadIndex) {
	t.Helper()
	if !slices.Equal(got.metrics, want.metrics) || got.n != want.n {
		t.Fatalf("metrics %v (%d samples), want %v (%d samples)", got.metrics, got.n, want.metrics, want.n)
	}
	if len(got.groups) != len(want.groups) {
		t.Fatalf("%d groups, want %d", len(got.groups), len(want.groups))
	}
	for _, m := range want.metrics {
		g, w := got.groups[m], want.groups[m]
		if g == nil {
			t.Fatalf("metric %s: no group", m)
		}
		if !sameBits(g.t, w.t) || !sameBits(g.w, w.w) || !sameBits(g.intens, w.intens) ||
			!slices.Equal(g.window, w.window) {
			t.Fatalf("metric %s: columns\n got t=%v w=%v window=%v\nwant t=%v w=%v window=%v",
				m, g.t, g.w, g.window, w.t, w.w, w.window)
		}
		if !slices.Equal(g.contribID, w.contribID) {
			t.Fatalf("metric %s: contribID %v, want %v", m, g.contribID, w.contribID)
		}
	}
	if !sameBits(got.uniqT, want.uniqT) || !sameBits(got.uniqW, want.uniqW) {
		t.Fatalf("ID tables\n got T=%v W=%v\nwant T=%v W=%v", got.uniqT, got.uniqW, want.uniqT, want.uniqW)
	}
}

// randInterval is one perf-stat interval at window win: a random subset
// of names in a random order, sharing one (T, W) except for the odd
// sample with its own, with W = 0 of either sign, the odd invalid
// sample, and names that sometimes are fresh copies of the same bytes.
func randInterval(rng *rand.Rand, names []string, win int) []Sample {
	t := float64(1 + rng.Intn(4))
	w := float64(rng.Intn(4))
	var out []Sample
	for _, i := range rng.Perm(len(names))[:1+rng.Intn(len(names))] {
		s := Sample{Metric: names[i], T: t, W: w, M: float64(rng.Intn(4)), Window: win}
		if rng.Intn(6) == 0 {
			s.T, s.W = float64(1+rng.Intn(4)), float64(rng.Intn(4))
		}
		if s.W == 0 && rng.Intn(2) == 0 {
			s.W = math.Copysign(0, -1)
		}
		if rng.Intn(4) == 0 {
			s.Metric = strings.Clone(s.Metric)
		}
		if rng.Intn(15) == 0 {
			s.T = -s.T
		}
		out = append(out, s)
	}
	return out
}

// TestIncrementalIndexMatchesOracle drives the builder through random
// Add/EvictBefore/Snapshot sequences and compares every snapshot, and an
// IndexWorkload of the same live samples, with oracleIndex. Streams with
// eviction keep each metric's windows nondecreasing, as EvictBefore
// requires, but repeat window numbers across intervals; streams without
// eviction also run windows backwards.
func TestIncrementalIndexMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for it := 0; it < 300; it++ {
		evict := rng.Intn(2) == 0
		inc := NewIncrementalIndex()
		var live []Sample
		win := 10 + rng.Intn(5)
		for step := 0; step < 12; step++ {
			if evict {
				win += rng.Intn(3)
			} else {
				win = 10 + rng.Intn(8)
			}
			var batch []Sample
			for k := rng.Intn(3); k >= 0; k-- {
				batch = append(batch, randInterval(rng, names[:1+rng.Intn(len(names))], win)...)
			}
			kept := inc.Add(batch...)
			for _, s := range batch {
				if s.Valid() {
					live = append(live, s)
					kept--
				}
			}
			if kept != 0 {
				t.Fatalf("it %d step %d: Add's count is off by %d", it, step, kept)
			}
			if evict && rng.Intn(2) == 0 {
				cut := win - rng.Intn(3)
				inc.EvictBefore(cut)
				live = slices.DeleteFunc(live, func(s Sample) bool { return s.Window < cut })
			}
			want := oracleIndex(live)
			indexesIdentical(t, inc.Snapshot(), want)
			indexesIdentical(t, IndexWorkload(Dataset{Samples: live}), want)
		}
	}
}

// TestIncrementalIndexSlabIsolation: a snapshot whose groups were all cut
// from one Add's slabs must stay bit-identical while later Adds grow
// those groups and evictions move past them. A group cut with spare
// capacity would let the next Add write into its neighbour's columns.
func TestIncrementalIndexSlabIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	names := []string{"a", "b", "c", "d", "e"}
	inc := NewIncrementalIndex()
	var first []Sample
	for win := 1; win <= 3; win++ {
		for _, n := range names {
			first = append(first, Sample{Metric: n, T: float64(win), W: float64(rng.Intn(9)), M: 1, Window: win})
		}
	}
	inc.Add(first...)
	snap := inc.Snapshot()
	want := oracleIndex(first)
	indexesIdentical(t, snap, want)
	for win := 4; win <= 12; win++ {
		var more []Sample
		for _, n := range append(names, "f") {
			more = append(more, Sample{Metric: n, T: 100 + float64(win), W: 1 + float64(rng.Intn(9)), M: 3, Window: win})
		}
		inc.Add(more...)
		inc.EvictBefore(win - 2)
		inc.Snapshot()
		indexesIdentical(t, snap, want)
	}
}

// TestIncrementalIndexSparseWindows compares snapshots with oracleIndex
// on windows that Snapshot numbers through its dense table (a run of
// consecutive windows) and through its map (windows far apart, up to
// the ends of int), one index switching between the two as it grows.
func TestIncrementalIndexSparseWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	names := []string{"alpha", "beta", "gamma", "delta"}
	runs := map[string][]int{
		"dense":          {5, 6, 7, 8, 6, 5},
		"negative dense": {-3, -2, -1, 0, 1},
		"sparse":         {5, 1_000_000, 5, -1_000_000},
		"dense then far": {1, 2, 3, 4, 1 << 40, 3},
		"ends of int":    {math.MinInt, math.MaxInt, 0, math.MinInt},
	}
	for name, wins := range runs {
		t.Run(name, func(t *testing.T) {
			inc := NewIncrementalIndex()
			var live []Sample
			for _, win := range wins {
				batch := randInterval(rng, names, win)
				inc.Add(batch...)
				for _, s := range batch {
					if s.Valid() {
						live = append(live, s)
					}
				}
				want := oracleIndex(live)
				indexesIdentical(t, inc.Snapshot(), want)
				indexesIdentical(t, IndexWorkload(Dataset{Samples: live}), want)
			}
		})
	}
}
