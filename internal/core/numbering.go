package core

import "sync"

// MetricNumbering numbers metric names 0, 1, 2, … in order of first
// appearance. It is the one numbering behind the workload key's compact
// stream and the SPB1 metric dictionary, so both see the same IDs.
//
// A lookup tries a guess before the map: the ID that followed the
// previous name's ID the last time it was numbered. A perf-stat feed
// lists its events in the same order every interval, and names interned
// by the decoders compare by pointer, so on such a feed the guess is one
// string compare and the map is consulted once per distinct name.
//
// Numberings come from a pool (NewMetricNumbering) and go back with
// Release; one is used by one goroutine at a time.
type MetricNumbering struct {
	ids   map[string]uint32
	names []string // names[id]
	next  []uint32 // next[id]: the ID that followed id last time, noMetric when none
	prev  uint32   // ID of the last name numbered, noMetric before the first
}

const noMetric = ^uint32(0)

// maxPooledMetrics bounds the tables Release keeps: a numbering that
// took more names (a hostile body of distinct names, say) is left to the
// collector rather than pinned in the pool at its high-water size.
const maxPooledMetrics = 1024

// pooledMetrics sizes a new numbering's tables for a request over every
// modelled PMU event (68), so a numbering made after a collection emptied
// the pool does not grow its map and slices step by step.
const pooledMetrics = 128

var numberings = sync.Pool{New: func() any {
	return &MetricNumbering{
		ids:   make(map[string]uint32, pooledMetrics),
		names: make([]string, 0, pooledMetrics),
		next:  make([]uint32, 0, pooledMetrics),
		prev:  noMetric,
	}
}}

// NewMetricNumbering returns an empty numbering from the pool.
func NewMetricNumbering() *MetricNumbering { return numberings.Get().(*MetricNumbering) }

// Release empties nu and returns it to the pool; nu must not be used
// after. Names numbered so far are dropped, so the pool holds no
// reference into a caller's samples.
func (nu *MetricNumbering) Release() {
	if len(nu.names) > maxPooledMetrics {
		return
	}
	clear(nu.ids)
	clear(nu.names)
	nu.names = nu.names[:0]
	nu.next = nu.next[:0]
	nu.prev = noMetric
	numberings.Put(nu)
}

// ID returns name's number and whether this call numbered it, that is,
// whether this is the name's first appearance. The very first lookup
// guesses ID 0, so a second pass over the same names starts on the guess
// path too.
func (nu *MetricNumbering) ID(name string) (id uint32, fresh bool) {
	guess := uint32(0)
	if nu.prev != noMetric {
		guess = nu.next[nu.prev]
	}
	if guess < uint32(len(nu.names)) && nu.names[guess] == name {
		nu.prev = guess
		return guess, false
	}
	id, ok := nu.ids[name]
	if !ok {
		id = uint32(len(nu.names))
		nu.ids[name] = id
		nu.names = append(nu.names, name)
		nu.next = append(nu.next, noMetric)
	}
	if nu.prev != noMetric {
		nu.next[nu.prev] = id
	}
	nu.prev = id
	return id, !ok
}

// Names returns the names numbered so far, indexed by ID. The slice is
// nu's own and valid until Release.
func (nu *MetricNumbering) Names() []string { return nu.names }
