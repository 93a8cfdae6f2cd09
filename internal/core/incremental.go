package core

import (
	"math"
	"slices"
	"sort"
)

// IncrementalIndex grows a workload index sample by sample, so a
// streaming consumer can extend its window without re-grouping or
// re-sorting the whole workload (paper §III collects samples as a
// continuous `perf stat -I` feed). It is the only index builder:
// IndexWorkload is one Add of the whole dataset plus a Snapshot, so a
// window's snapshot and a batch index over the same samples in the same
// order are the same index.
//
// Both builder steps lean on the shape of a perf-stat feed. Add makes
// two passes: the first resolves and counts each sample's metric group,
// the second fills the columns, so a group new to the index gets its
// columns cut at their exact size from one slab per column type. Each
// group remembers the group of the sample that followed it last, and
// the lookup tries that guess before the groups map: intervals list
// their events in the same order, and names interned by the decoders
// compare by pointer. Snapshot numbers periods by window, because every
// event of one interval shares its T and W; only a period that differs
// from the first one of its window goes through a (T, W, window) map.
//
// Add, EvictBefore and Snapshot all write the index (Snapshot sorts the
// metric list and renumbers periods), so callers serialize them. The
// snapshots it hands out stay safe to read while the index keeps
// growing: every column's capacity ends at its last sample when
// published, appends beyond a full column reallocate it, and evictions
// only move slice headers forward.
type IncrementalIndex struct {
	metrics []string // metric names with >= 1 live sample; Snapshot sorts them
	groups  map[string]*metricGroup
	n       int          // live samples across all groups
	last    *metricGroup // group of the last sample added; nil after an eviction deletes a group

	// Scratch reused across calls.
	batch      []*metricGroup        // Add: each sample's group, nil when invalid
	fresh      []*metricGroup        // Add: groups created by this Add
	firstDense []uint32              // Snapshot: window-lo -> ID of its first period, dense windows
	first      map[int]uint32        // Snapshot: window -> ID of its first period, sparse windows
	ids        map[measureKey]uint32 // Snapshot: periods that differ from their window's first
}

// noPeriod marks a window with no period yet in Snapshot's dense table.
const noPeriod = ^uint32(0)

// metricGroup is one metric's live columns plus Add's bookkeeping. Its
// contribID column stays unused: Snapshot numbers periods afresh.
type metricGroup struct {
	indexedMetric
	name    string
	next    *metricGroup // group of the sample that followed this group's last sample
	pending int          // samples of the Add in progress
}

// NewIncrementalIndex returns an empty index.
func NewIncrementalIndex() *IncrementalIndex {
	return &IncrementalIndex{groups: make(map[string]*metricGroup)}
}

// group returns the group of a sample of metric name that follows a
// sample of prev's group (prev nil when there is none), creating it if
// the index has none, and records it as prev's next guess.
func (ix *IncrementalIndex) group(prev *metricGroup, name string) *metricGroup {
	if prev != nil && prev.next != nil && prev.next.name == name {
		return prev.next
	}
	g, ok := ix.groups[name]
	if !ok {
		g = &metricGroup{name: name}
		ix.groups[name] = g
		ix.fresh = append(ix.fresh, g)
		// Sorted once per Snapshot: sorted insertion here would make
		// indexing M distinct metrics O(M²).
		ix.metrics = append(ix.metrics, name)
	}
	if prev != nil {
		prev.next = g
	}
	return g
}

// Add appends samples to their metric groups' columns, dropping invalid
// ones exactly as Dataset.ByMetric drops them, and returns how many were
// kept. Within one metric, samples must arrive in the order the batch
// path would see them (the dataset order); the streaming pipeline feeds
// intervals in window order, which satisfies this by construction.
func (ix *IncrementalIndex) Add(samples ...Sample) int {
	// Pass 1: resolve and count each valid sample's group.
	ix.batch = slices.Grow(ix.batch[:0], len(samples))[:len(samples)]
	added := 0
	prev := ix.last
	for i := range samples {
		s := &samples[i]
		if !s.Valid() {
			ix.batch[i] = nil
			continue
		}
		g := ix.group(prev, s.Metric)
		g.pending++
		ix.batch[i] = g
		prev = g
		added++
	}
	ix.last = prev

	// Fresh groups take exact-size columns from one slab per column type.
	// The full-slice cuts leave no capacity past each group's own samples,
	// so a later Add reallocates rather than writing into a neighbour.
	fresh := 0
	for _, g := range ix.fresh {
		fresh += g.pending
	}
	fs := make([]float64, 3*fresh)
	ws := make([]int, fresh)
	for _, g := range ix.fresh {
		c := g.pending
		g.t, fs = fs[:0:c], fs[c:]
		g.w, fs = fs[:0:c], fs[c:]
		g.intens, fs = fs[:0:c], fs[c:]
		g.window, ws = ws[:0:c], ws[c:]
		g.pending = 0
	}

	// Pass 2: fill. Groups that already held samples grow once per Add.
	for i := range samples {
		g := ix.batch[i]
		if g == nil {
			continue
		}
		if g.pending > 0 {
			g.t = slices.Grow(g.t, g.pending)
			g.w = slices.Grow(g.w, g.pending)
			g.intens = slices.Grow(g.intens, g.pending)
			g.window = slices.Grow(g.window, g.pending)
			g.pending = 0
		}
		s := &samples[i]
		g.t = append(g.t, s.T)
		g.w = append(g.w, s.W)
		g.intens = append(g.intens, s.Intensity())
		g.window = append(g.window, s.Window)
	}
	clear(ix.batch)
	clear(ix.fresh)
	ix.fresh = ix.fresh[:0]
	ix.n += added
	return added
}

// EvictBefore drops every sample whose Window tag is below window and
// returns how many were dropped. It relies on windows being
// nondecreasing within each metric group (true whenever Add is fed
// intervals in window order). Metrics left without samples disappear
// from the index, so coverage reporting matches a fresh index over the
// surviving samples. Eviction never writes to the evicted region, so
// previously taken snapshots stay valid.
func (ix *IncrementalIndex) EvictBefore(window int) int {
	evicted, deleted := 0, false
	for metric, g := range ix.groups {
		k := sort.Search(len(g.window), func(i int) bool {
			return g.window[i] >= window
		})
		if k == 0 {
			continue
		}
		g.t = g.t[k:]
		g.w = g.w[k:]
		g.intens = g.intens[k:]
		g.window = g.window[k:]
		evicted += k
		ix.n -= k
		if len(g.window) == 0 {
			delete(ix.groups, metric)
			deleted = true
		}
	}
	if deleted {
		// A guess must never name a deleted group: a returning metric
		// gets a new one.
		ix.last = nil
		live := ix.metrics[:0]
		for _, m := range ix.metrics {
			if g, ok := ix.groups[m]; ok {
				g.next = nil
				live = append(live, m)
			}
		}
		clear(ix.metrics[len(live):])
		ix.metrics = live
	}
	return evicted
}

// Snapshot publishes the current contents as an immutable WorkloadIndex
// that stays correct while the IncrementalIndex keeps mutating. The
// snapshot shares the t/w/intens/window columns with the live index:
// full-slice expressions cap each at its current length, later Adds
// write only beyond that cap, and EvictBefore only advances the live
// slice headers. The contribution-ID tables are built fresh over the
// live samples, so snapshots stay bounded by the window.
//
// Period IDs go to distinct (T, W, window) triples in order of first
// appearance, walking metrics in name order and each metric's samples in
// arrival order. A sample whose T and W equal (==) those of its window's
// first period takes that period's ID without a map keyed by the whole
// triple. When the windows span at most two slots per sample, as a
// request's or a stream's consecutive windows do, a window's first
// period is found in a slice indexed by window - min; sparser windows
// use a map.
func (ix *IncrementalIndex) Snapshot() *WorkloadIndex {
	sort.Strings(ix.metrics)
	out := &WorkloadIndex{
		metrics: append([]string(nil), ix.metrics...),
		groups:  make(map[string]*indexedMetric, len(ix.groups)),
		n:       ix.n,
	}
	cols := make([]indexedMetric, len(ix.metrics))
	lo, hi := math.MaxInt, math.MinInt
	for i, metric := range ix.metrics {
		g := ix.groups[metric]
		n := len(g.t)
		cols[i] = indexedMetric{t: g.t[:n:n], w: g.w[:n:n], intens: g.intens[:n:n], window: g.window[:n:n]}
		out.groups[metric] = &cols[i]
		for _, win := range g.window {
			lo, hi = min(lo, win), max(hi, win)
		}
	}
	// hi - lo in uint64 cannot overflow, whatever the windows.
	dense := ix.n > 0 && uint64(hi)-uint64(lo) < 2*uint64(ix.n)
	if dense {
		span := int(uint64(hi)-uint64(lo)) + 1
		ix.firstDense = slices.Grow(ix.firstDense[:0], span)[:span]
		for i := range ix.firstDense {
			ix.firstDense[i] = noPeriod
		}
	} else if ix.first == nil {
		ix.first = make(map[int]uint32)
	} else {
		clear(ix.first)
	}
	clear(ix.ids)
	idSlab := make([]uint32, ix.n)
	for i := range cols {
		c := &cols[i]
		n := len(c.t)
		c.contribID, idSlab = idSlab[:n:n], idSlab[n:]
		for j := range c.contribID {
			t, w, win := c.t[j], c.w[j], c.window[j]
			var id uint32
			ok := false
			if dense {
				id = ix.firstDense[win-lo]
				ok = id != noPeriod
			} else {
				id, ok = ix.first[win]
			}
			switch {
			case !ok:
				id = uint32(len(out.uniqT))
				if dense {
					ix.firstDense[win-lo] = id
				} else {
					ix.first[win] = id
				}
				out.uniqT = append(out.uniqT, t)
				out.uniqW = append(out.uniqW, w)
			case out.uniqT[id] == t && out.uniqW[id] == w:
			default:
				if ix.ids == nil {
					ix.ids = make(map[measureKey]uint32, ix.n)
				}
				k := measureKey{t: t, w: w, window: win}
				if id, ok = ix.ids[k]; !ok {
					id = uint32(len(out.uniqT))
					ix.ids[k] = id
					out.uniqT = append(out.uniqT, t)
					out.uniqW = append(out.uniqW, w)
				}
			}
			c.contribID[j] = id
		}
	}
	return out
}

// Len returns the number of live (valid, unevicted) samples.
func (ix *IncrementalIndex) Len() int { return ix.n }

// Metrics returns the sorted metric names with at least one live sample.
func (ix *IncrementalIndex) Metrics() []string {
	out := append([]string(nil), ix.metrics...)
	sort.Strings(out)
	return out
}
