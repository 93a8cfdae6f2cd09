package core

import (
	"context"
	"math"
	"sort"
	"sync"
)

// WorkloadIndex is a workload dataset pre-indexed for repeated estimation:
// samples are grouped by metric once, laid out as contiguous per-metric
// columns (structure-of-arrays), and per-sample operational intensities
// are precomputed, so that BatchEstimateInto does no re-grouping or
// re-derivation work per call and streams each metric's samples as flat
// []float64 scans. An index is immutable and safe for concurrent use by
// any number of estimators.
type WorkloadIndex struct {
	metrics []string // sorted metric names with >= 1 valid sample
	groups  map[string]*indexedMetric
	n       int // valid samples across all groups

	// uniqT/uniqW are the period-deduplication tables: one entry per
	// distinct measureKey across the whole index, holding that period's
	// (T, W) contribution to the measured-throughput aggregate. Each
	// sample's contribID column points into them, so the merge can dedup
	// with an epoch-stamped array instead of a map.
	uniqT, uniqW []float64
}

// indexedMetric holds one metric's valid samples as parallel columns, in
// dataset arrival order.
type indexedMetric struct {
	t, w      []float64 // Sample.T / Sample.W
	intens    []float64 // Intensity() per sample, precomputed
	window    []int     // Sample.Window
	contribID []uint32  // index into WorkloadIndex.uniqT/uniqW
}

// IndexWorkload groups the workload's valid samples by metric into
// columnar storage and precomputes each sample's operational intensity
// plus the measured-throughput dedup tables. Invalid samples are dropped
// exactly as Dataset.ByMetric drops them; per-metric order is dataset
// order. It is one IncrementalIndex Add plus a Snapshot, so batch indexes
// and streaming snapshots share a single builder: every metric's columns
// come at their exact size from one slab per column type, and periods
// are numbered by window, so a request whose intervals share T and W, as
// perf stat's do, costs a few allocations per metric rather than per
// sample.
func IndexWorkload(d Dataset) *WorkloadIndex {
	ix := NewIncrementalIndex()
	ix.Add(d.Samples...)
	return ix.Snapshot()
}

// Metrics returns the sorted metric names with at least one valid sample.
func (ix *WorkloadIndex) Metrics() []string {
	return append([]string(nil), ix.metrics...)
}

// Len returns the number of indexed (valid) samples.
func (ix *WorkloadIndex) Len() int { return ix.n }

// EstimateOptions configures BatchEstimateInto.
type EstimateOptions struct {
	// Workers is ignored: estimation always runs serially on the
	// caller's goroutine. The field remains so existing callers that
	// set it keep compiling.
	Workers int
}

// chainEval is the one roofline evaluator: the chain is flattened into
// parallel breakpoint columns plus a per-segment start table, and
// segment lookup runs by interpolation search over the breakpoint
// abscissae. Roofline.Eval, EstimateWithCI, the batch merge and the
// hierarchy's surfaces all evaluate through it. The segment table
// stores endpoints — not a precomputed slope — because evaluating
// y0 + ((i-x0)/(x1-x0))*(y1-y0) with the division done at eval time keeps
// the rounding of the direct segment-walk definition (internal/oracle's
// ChainEval) bit for bit, which a premultiplied dy/dx would not.
type chainEval struct {
	// Left chain: breakpoint k ends segment k, which starts at
	// (lx0[k], ly0[k]) — the origin for k == 0, breakpoint k-1 otherwise.
	leftX, leftY []float64
	lx0, ly0     []float64
	peakX, peakY float64
	// Right chain breakpoints; segment k spans breakpoints k..k+1.
	rightX, rightY []float64
	tail           float64
}

// newChainEval builds the segment table for r. It tolerates structurally
// odd chains: it never panics, whatever the breakpoints hold.
func newChainEval(r *Roofline) *chainEval {
	peak := r.Peak()
	ce := &chainEval{
		peakX: peak.X,
		peakY: peak.Y,
		tail:  r.TailY,
	}
	ce.leftX = make([]float64, len(r.Left))
	ce.leftY = make([]float64, len(r.Left))
	ce.lx0 = make([]float64, len(r.Left))
	ce.ly0 = make([]float64, len(r.Left))
	for i, p := range r.Left {
		ce.leftX[i] = p.X
		ce.leftY[i] = p.Y
		if i > 0 {
			ce.lx0[i] = r.Left[i-1].X
			ce.ly0[i] = r.Left[i-1].Y
		}
	}
	ce.rightX = make([]float64, len(r.Right))
	ce.rightY = make([]float64, len(r.Right))
	for i, p := range r.Right {
		ce.rightX[i] = p.X
		ce.rightY[i] = p.Y
	}
	return ce
}

// searchGE returns the smallest k with xs[k] >= x, or len(xs) when every
// element is smaller — exactly sort.SearchFloat64s's contract. On sorted
// input it is guaranteed to return the identical index: every probe only
// narrows [lo, hi] under the same monotone predicate, so the fixpoint is
// the same boundary regardless of how probes are chosen. Probes alternate
// between interpolation (which lands near the target in O(log log n) on
// evenly distributed abscissae — the common shape of fitted breakpoints)
// and bisection (which bounds the worst case at O(log n) on adversarial
// ones). Unsorted or NaN-laden input yields some index without panicking,
// matching binary search's garbage-in behavior.
func searchGE(xs []float64, x float64) int {
	lo, hi := 0, len(xs)
	interpolate := true
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if interpolate && hi-lo > 4 {
			a, b := xs[lo], xs[hi-1]
			if b > a && x > a && x < b {
				k := lo + int((x-a)/(b-a)*float64(hi-1-lo))
				// Clamp: on garbage input the estimate can land anywhere.
				if k >= lo && k < hi {
					mid = k
				}
			}
		}
		if xs[mid] >= x {
			hi = mid
		} else {
			lo = mid + 1
		}
		interpolate = !interpolate
	}
	return lo
}

// eval returns the roofline's maximum-throughput estimate at operational
// intensity i. NaN inputs (and rooflines with no left chain) yield NaN;
// negative intensities are clamped to zero.
func (ce *chainEval) eval(i float64) float64 {
	if math.IsNaN(i) {
		return math.NaN()
	}
	nl := len(ce.leftX)
	if nl == 0 {
		return math.NaN()
	}
	if i < 0 {
		i = 0
	}
	if i <= ce.peakX {
		// First breakpoint at or beyond i: the segment a walk from the
		// origin along the left chain stops in.
		k := searchGE(ce.leftX, i)
		if k >= nl {
			return ce.leftY[nl-1]
		}
		x0, y0 := ce.lx0[k], ce.ly0[k]
		x1, y1 := ce.leftX[k], ce.leftY[k]
		if x1 == x0 {
			return y1
		}
		return lerpSeg(x0, y0, x1, y1, i)
	}
	nr := len(ce.rightX)
	if nr == 0 {
		return ce.tail
	}
	if i < ce.rightX[0] {
		return ce.peakY
	}
	if i >= ce.rightX[nr-1] {
		return ce.tail
	}
	// Rightmost segment start with rightX[k] <= i. searchGE returns the
	// FIRST index with rightX[k] >= i; on an exact hit that may be the
	// head of a duplicate-X run whose zero-width segment must never be
	// selected, so walk the run of equal abscissae to its end before
	// stepping back.
	k := searchGE(ce.rightX, i)
	for k < nr && ce.rightX[k] <= i {
		k++
	}
	k--
	if k < 0 {
		return ce.peakY
	}
	if k+1 >= nr {
		return ce.tail
	}
	x0, y0 := ce.rightX[k], ce.rightY[k]
	x1, y1 := ce.rightX[k+1], ce.rightY[k+1]
	return lerpSeg(x0, y0, x1, y1, i)
}

// evaluators returns the memoized segment tables, building them on first
// use. Safe for concurrent callers; rooflines must not be mutated after
// the first estimation (trained and loaded ensembles never are).
func (e *Ensemble) evaluators() map[string]*chainEval {
	e.evalOnce.Do(func() {
		m := make(map[string]*chainEval, len(e.Rooflines))
		names := make([]string, 0, len(e.Rooflines))
		for name, r := range e.Rooflines {
			m[name] = newChainEval(r)
			names = append(names, name)
		}
		sort.Strings(names)
		e.evals = m
		e.sortedNames = names
		if h := e.Hierarchy; h != nil && len(h.Surfaces) > 0 {
			e.surfEvals = make([]*chainEval, len(h.Surfaces))
			for i := range h.Surfaces {
				e.surfEvals[i] = surfaceChain(&h.Surfaces[i])
			}
		}
	})
	return e.evals
}

// surfaceEvals returns the memoized surface segment tables, parallel to
// e.Hierarchy.Surfaces (nil for models without surfaces).
func (e *Ensemble) surfaceEvals() []*chainEval {
	e.evaluators()
	return e.surfEvals
}

// metricBatch is one metric's contribution to a batch estimation.
type metricBatch struct {
	ok      bool
	me      MetricEstimate
	contrib []uint32 // contributing sample indices (into the metric's columns)
}

// estimateMetric evaluates one metric's sample columns against its
// memoized roofline table, writing the result into out (whose contrib
// slice is reused across calls). This is the single implementation of the
// paper's Eq. 1 per-metric time-weighted merge. The weighted mean is
// accumulated inline in column order — term for term the same sums
// stats.WeightedMean computes, whose error paths are unreachable here
// because every indexed sample has T > 0 (Sample.Valid).
func estimateMetric(metric string, im *indexedMetric, ce *chainEval, out *metricBatch) {
	out.ok = false
	out.me = MetricEstimate{}
	out.contrib = out.contrib[:0]

	var num, den float64
	var intensityNum, intensityDen float64
	infIntensity := false
	for j, intensity := range im.intens {
		p := ce.eval(intensity)
		if math.IsNaN(p) {
			continue
		}
		t := im.t[j]
		num += t * p
		den += t
		if math.IsInf(intensity, 1) {
			infIntensity = true
		} else {
			intensityNum += t * intensity
			intensityDen += t
		}
		// When multiple metrics share one period's T and W (the common
		// collection setup), that period must count once in the
		// measured-throughput aggregate. Record the contributing sample;
		// the merge dedupes by window when the collector tagged one, else
		// by (T, W) value.
		out.contrib = append(out.contrib, uint32(j))
	}
	if len(out.contrib) == 0 || den == 0 {
		return
	}
	out.ok = true
	out.me = MetricEstimate{
		Metric:       metric,
		MeanEstimate: num / den,
		Samples:      len(out.contrib),
	}
	switch {
	case intensityDen > 0:
		out.me.MeanIntensity = intensityNum / intensityDen
	case infIntensity:
		out.me.MeanIntensity = math.Inf(1)
	default:
		out.me.MeanIntensity = math.NaN()
	}
}

// perMetricSorter orders the ranking ascending by MeanEstimate with the
// metric name as tiebreak — a total order (names are unique), so every
// sorting algorithm yields the same permutation. It lives in the pooled
// scratch so sort.Sort sees an already-heap-allocated interface value and
// the hot path stays allocation-free.
type perMetricSorter struct{ ms []MetricEstimate }

func (s *perMetricSorter) Len() int      { return len(s.ms) }
func (s *perMetricSorter) Swap(i, j int) { s.ms[i], s.ms[j] = s.ms[j], s.ms[i] }
func (s *perMetricSorter) Less(i, j int) bool {
	a, b := s.ms[i], s.ms[j]
	if a.MeanEstimate != b.MeanEstimate {
		return a.MeanEstimate < b.MeanEstimate
	}
	return a.Metric < b.Metric
}

// batchScratch pools the per-call merge state: the per-metric result
// slot (whose contrib slice keeps its capacity), the measured-throughput
// dedup state — an epoch-stamped array over the index's contribution
// IDs — and the ranking sorter. Repeated estimations — the serve and
// timeline pattern — reach a steady state with no per-call heap growth.
type batchScratch struct {
	res    metricBatch
	stamp  []uint32
	epoch  uint32
	sorter perMetricSorter
}

var batchScratchPool = sync.Pool{
	New: func() any { return new(batchScratch) },
}

// stampTable readies the epoch-stamp dedup array for n contribution IDs
// and returns it along with the epoch value that marks "seen this call".
func (sc *batchScratch) stampTable(n int) ([]uint32, uint32) {
	if cap(sc.stamp) < n {
		sc.stamp = make([]uint32, n)
		sc.epoch = 0
	}
	sc.stamp = sc.stamp[:cap(sc.stamp)]
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could alias, wipe them
		clear(sc.stamp)
		sc.epoch = 1
	}
	return sc.stamp, sc.epoch
}

// BatchEstimateInto is the one implementation of the ensemble-level
// estimation process of paper Fig. 4 / Eq. 1: estimate each indexed
// sample with its metric's roofline, merge per metric with a
// time-weighted average, and take the minimum across metrics. Shared
// metrics are evaluated one after another in metric-name order on the
// caller's goroutine, and each result is merged as soon as it is
// computed, so the estimation is deterministic. opts is accepted for
// compatibility and has no effect.
//
// The result is written into est, reusing its slice capacities: a caller
// that keeps one Estimation per loop reaches zero allocations per call in
// steady state. On error est's contents are unspecified.
//
// ctx is checked before each metric: cancelling it aborts the remaining
// evaluations and returns ctx.Err(). ErrNoSamples is returned when no
// indexed metric overlaps the model.
func (e *Ensemble) BatchEstimateInto(ctx context.Context, ix *WorkloadIndex, _ EstimateOptions, est *Estimation) error {
	evals := e.evaluators()
	est.PerMetric = est.PerMetric[:0]
	est.MaxThroughput = math.Inf(1)
	est.MeasuredThroughput = 0
	e.coverageInto(ix.metrics, &est.Coverage)

	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)

	// The measured throughput counts each period once across metrics:
	// every index carries contribution IDs, so dedup is an epoch-stamped
	// array scan, accumulating periods in the order the merge first
	// reaches them.
	stamp, epoch := sc.stampTable(len(ix.uniqT))
	var totT, totW float64
	res := &sc.res
	for _, metric := range ix.metrics {
		ce, ok := evals[metric]
		if !ok {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		im := ix.groups[metric]
		estimateMetric(metric, im, ce, res)
		for _, j := range res.contrib {
			id := im.contribID[j]
			if stamp[id] != epoch {
				stamp[id] = epoch
				totT += ix.uniqT[id]
				totW += ix.uniqW[id]
			}
		}
		mergeMetric(est, res)
	}
	if len(est.PerMetric) == 0 {
		return ErrNoSamples
	}
	sc.sorter.ms = est.PerMetric
	sort.Sort(&sc.sorter)
	sc.sorter.ms = nil
	if totT > 0 {
		est.MeasuredThroughput = totW / totT
	} else {
		est.MeasuredThroughput = math.NaN()
	}
	e.applyHierarchy(ix, est)
	return nil
}

// mergeMetric folds one metric's result into the estimation.
func mergeMetric(est *Estimation, res *metricBatch) {
	if !res.ok {
		return
	}
	est.PerMetric = append(est.PerMetric, res.me)
	if res.me.MeanEstimate < est.MaxThroughput {
		est.MaxThroughput = res.me.MeanEstimate
	}
}
