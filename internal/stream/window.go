package stream

import (
	"spire/internal/core"
	"spire/internal/ingest"
)

// Window is one completed sliding window, ready for estimation. Index is
// an immutable snapshot: it stays valid while the Windower keeps sliding,
// so estimation may proceed concurrently with further pushes.
type Window struct {
	Seq       uint64
	StartTS   float64 // earliest in-window interval timestamp
	EndTS     float64 // the just-arrived interval's timestamp
	Intervals int     // intervals currently in the window (<= span)
	Samples   int     // valid samples across the window
	Index     *core.WorkloadIndex
	// Sched holds the scheduler events of all in-window intervals, in
	// arrival order. Nil when no in-window interval carried any.
	Sched []core.SchedEvent
}

// ivSpan remembers one in-window interval's identity for eviction.
type ivSpan struct {
	ts     float64
	window int
	sched  []core.SchedEvent
}

// Windower maintains the sliding window over incoming intervals: each
// push extends the incremental index with the new interval's samples,
// evicts the interval that slid out, and publishes a snapshot. Memory is
// bounded by the span regardless of stream length. Not safe for
// concurrent use; Pipeline and Hub serialize pushes.
type Windower struct {
	span  int
	idx   *core.IncrementalIndex
	spans []ivSpan
	seq   uint64
}

// NewWindower returns a windower spanning the given number of intervals
// (<= 0 selects DefaultWindowIntervals).
func NewWindower(span int) *Windower {
	if span <= 0 {
		span = DefaultWindowIntervals
	}
	return &Windower{span: span, idx: core.NewIncrementalIndex()}
}

// Push slides the window forward by one interval and returns the
// resulting window. The interval's Window tags must be nondecreasing
// across pushes, which ingestion guarantees.
func (w *Windower) Push(iv ingest.Interval) Window {
	w.idx.Add(iv.Samples...)
	w.spans = append(w.spans, ivSpan{ts: iv.TS, window: iv.Window, sched: iv.Sched})
	if len(w.spans) > w.span {
		w.spans = w.spans[1:]
		w.idx.EvictBefore(w.spans[0].window)
	}
	w.seq++
	// Flatten in-window scheduler events into an immutable snapshot.
	// Zero-sched streams never take this path and keep Sched nil.
	var sched []core.SchedEvent
	for _, sp := range w.spans {
		if len(sp.sched) > 0 {
			sched = append(sched, sp.sched...)
		}
	}
	return Window{
		Seq:       w.seq,
		StartTS:   w.spans[0].ts,
		EndTS:     iv.TS,
		Intervals: len(w.spans),
		Samples:   w.idx.Len(),
		Index:     w.idx.Snapshot(),
		Sched:     sched,
	}
}
