// Package roofline implements the classic single-processor roofline model
// (Williams et al.) that SPIRE generalizes: attainable throughput
// P(I) = min(π, β·I) with optional extra ceilings (paper Fig. 2). In this
// repository the instruction-roofline variant is used: throughput in
// instructions per cycle and operational intensity in instructions per
// byte of DRAM traffic.
package roofline

import (
	"errors"
	"fmt"
	"math"
)

// CeilingKind distinguishes horizontal compute ceilings from diagonal
// bandwidth ceilings.
type CeilingKind uint8

const (
	// Compute ceilings bound throughput directly (e.g. "scalar only").
	Compute CeilingKind = iota
	// Bandwidth ceilings bound throughput as Value * I (e.g. "DRAM").
	Bandwidth
)

// Ceiling is an additional bound below the model's peak.
type Ceiling struct {
	Name  string
	Kind  CeilingKind
	Value float64
}

// Model is a classic roofline: peak throughput π, peak bandwidth β, and
// optional lower ceilings.
type Model struct {
	// PeakThroughput is π in work/time units (IPC here).
	PeakThroughput float64
	// PeakBandwidth is β in bytes/time units (bytes per cycle here).
	PeakBandwidth float64
	// Ceilings are extra bounds plotted below the peak.
	Ceilings []Ceiling
}

// New validates and builds a model.
func New(peakThroughput, peakBandwidth float64, ceilings ...Ceiling) (*Model, error) {
	if peakThroughput <= 0 || math.IsNaN(peakThroughput) || math.IsInf(peakThroughput, 0) {
		return nil, errors.New("roofline: peak throughput must be positive and finite")
	}
	if peakBandwidth <= 0 || math.IsNaN(peakBandwidth) || math.IsInf(peakBandwidth, 0) {
		return nil, errors.New("roofline: peak bandwidth must be positive and finite")
	}
	for _, c := range ceilings {
		if c.Value <= 0 || math.IsNaN(c.Value) {
			return nil, fmt.Errorf("roofline: ceiling %q must be positive", c.Name)
		}
	}
	return &Model{PeakThroughput: peakThroughput, PeakBandwidth: peakBandwidth, Ceilings: ceilings}, nil
}

// Attainable returns min(π, β·I) for operational intensity I.
func (m *Model) Attainable(i float64) float64 {
	if math.IsNaN(i) {
		return math.NaN()
	}
	if i < 0 {
		i = 0
	}
	bw := m.PeakBandwidth * i
	if math.IsInf(i, 1) {
		bw = math.Inf(1)
	}
	return math.Min(m.PeakThroughput, bw)
}

// AttainableUnder applies one named ceiling in place of the corresponding
// peak. Unknown names return an error.
func (m *Model) AttainableUnder(name string, i float64) (float64, error) {
	for _, c := range m.Ceilings {
		if c.Name != name {
			continue
		}
		switch c.Kind {
		case Compute:
			return math.Min(c.Value, m.PeakBandwidth*i), nil
		case Bandwidth:
			return math.Min(m.PeakThroughput, c.Value*i), nil
		}
	}
	return 0, fmt.Errorf("roofline: unknown ceiling %q", name)
}

// RidgePoint returns the operational intensity where the memory and
// compute roofs meet (π/β): below it workloads are memory-bound.
func (m *Model) RidgePoint() float64 {
	return m.PeakThroughput / m.PeakBandwidth
}

// Bound classifies a workload with operational intensity i as
// memory-bound or compute-bound.
type Bound uint8

// Bound kinds.
const (
	MemoryBound Bound = iota
	ComputeBound
)

// String names the bound.
func (b Bound) String() string {
	if b == MemoryBound {
		return "memory-bound"
	}
	return "compute-bound"
}

// Classify returns the workload's bound per the basic model.
func (m *Model) Classify(i float64) Bound {
	if i < m.RidgePoint() {
		return MemoryBound
	}
	return ComputeBound
}

// SeriesPoint is one (I, P) pair of a plottable roofline curve.
type SeriesPoint struct {
	I float64
	P float64
}

// Series samples the model's attainable curve at n log-spaced intensities
// in [lo, hi] for plotting (paper Fig. 2's roof).
func (m *Model) Series(lo, hi float64, n int) ([]SeriesPoint, error) {
	if lo <= 0 || hi <= lo || n < 2 {
		return nil, errors.New("roofline: need 0 < lo < hi and n >= 2")
	}
	out := make([]SeriesPoint, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	x := lo
	for k := 0; k < n; k++ {
		out[k] = SeriesPoint{I: x, P: m.Attainable(x)}
		x *= ratio
	}
	return out, nil
}

// App is a measured application point on the roofline plot.
type App struct {
	Name string
	// Intensity is measured work per byte of memory traffic.
	Intensity float64
	// Throughput is the measured performance.
	Throughput float64
}
