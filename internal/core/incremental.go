package core

import "sort"

// IncrementalIndex grows a workload index sample by sample, so a
// streaming consumer can extend its window without re-grouping or
// re-sorting the whole workload (paper §III collects samples as a
// continuous `perf stat -I` feed). It is the only index builder:
// IndexWorkload is one Add of the whole dataset plus a Snapshot, so a
// window's snapshot and a batch index over the same samples in the same
// order are the same index.
//
// Add, EvictBefore and Snapshot all write the index (Snapshot sorts the
// metric list and renumbers periods), so callers serialize them. The
// snapshots it hands out stay safe to read while the index keeps
// growing: appends only ever write beyond every published snapshot's
// visible range, and evictions only move slice headers forward.
type IncrementalIndex struct {
	metrics []string // metric names with >= 1 live sample; Snapshot sorts them
	groups  map[string]*indexedMetric
	n       int                   // live samples across all groups
	ids     map[measureKey]uint32 // Snapshot's period numbering, cleared per snapshot
}

// NewIncrementalIndex returns an empty index.
func NewIncrementalIndex() *IncrementalIndex {
	return &IncrementalIndex{groups: make(map[string]*indexedMetric)}
}

// Add appends samples to their metric groups' columns, dropping invalid
// ones exactly as Dataset.ByMetric drops them, and returns how many were
// kept. Within one metric, samples must arrive in the order the batch
// path would see them (the dataset order); the streaming pipeline feeds
// intervals in window order, which satisfies this by construction.
func (ix *IncrementalIndex) Add(samples ...Sample) int {
	added := 0
	for _, s := range samples {
		if !s.Valid() {
			continue
		}
		g, ok := ix.groups[s.Metric]
		if !ok {
			g = &indexedMetric{}
			ix.groups[s.Metric] = g
			// Sorted once per Snapshot: sorted insertion here would
			// make indexing M distinct metrics O(M²).
			ix.metrics = append(ix.metrics, s.Metric)
		}
		g.t = append(g.t, s.T)
		g.w = append(g.w, s.W)
		g.intens = append(g.intens, s.Intensity())
		g.window = append(g.window, s.Window)
		ix.n++
		added++
	}
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
	evicted := 0
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
		}
	}
	if evicted > 0 && len(ix.groups) < len(ix.metrics) {
		live := ix.metrics[:0]
		for _, m := range ix.metrics {
			if _, ok := ix.groups[m]; ok {
				live = append(live, m)
			}
		}
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
func (ix *IncrementalIndex) Snapshot() *WorkloadIndex {
	sort.Strings(ix.metrics)
	out := &WorkloadIndex{
		metrics: append([]string(nil), ix.metrics...),
		groups:  make(map[string]*indexedMetric, len(ix.groups)),
		n:       ix.n,
	}
	if ix.ids == nil {
		ix.ids = make(map[measureKey]uint32, ix.n)
	}
	clear(ix.ids)
	for _, metric := range ix.metrics {
		g := ix.groups[metric]
		n := len(g.t)
		contribID := make([]uint32, n)
		for j := range contribID {
			k := measureKey{t: g.t[j], w: g.w[j], window: g.window[j]}
			id, ok := ix.ids[k]
			if !ok {
				id = uint32(len(out.uniqT))
				ix.ids[k] = id
				out.uniqT = append(out.uniqT, k.t)
				out.uniqW = append(out.uniqW, k.w)
			}
			contribID[j] = id
		}
		out.groups[metric] = &indexedMetric{
			t:         g.t[:n:n],
			w:         g.w[:n:n],
			intens:    g.intens[:n:n],
			window:    g.window[:n:n],
			contribID: contribID,
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
