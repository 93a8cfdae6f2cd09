package core

import (
	"fmt"
	"math"

	"spire/internal/geom"
)

// Roofline is one metric's piecewise-linear throughput upper bound
// (paper §III-B). It is split at the highest-throughput training sample
// ("the peak"): to the left the bound is increasing and concave-down (the
// metric behaves as negatively associated with performance), to the right
// it is decreasing and concave-up (positively associated), except for the
// special horizontal segment at the peak allowed by the right-fitting
// algorithm.
type Roofline struct {
	// Metric names the performance counter event this roofline bounds.
	Metric string `json:"metric"`

	// Left holds the left-region breakpoints, ascending in intensity,
	// ending at the peak. The bound is evaluated from the origin (0,0)
	// through these points. Always non-empty for a fitted model.
	Left []geom.Point `json:"left"`

	// Right holds the right-region breakpoints chosen by the Pareto +
	// shortest-path fit, ascending in intensity, all finite. It may be
	// empty (no samples beyond the peak), and its first point may be the
	// peak itself (fully continuous fit) or lie beyond it, in which case
	// the bound is the horizontal peak level until the first right
	// breakpoint is reached (the paper's "special horizontal segment").
	Right []geom.Point `json:"right"`

	// TailY is the bound for intensities beyond the last right
	// breakpoint, including I = +Inf. It equals the last right
	// breakpoint's throughput, or the peak throughput when Right is
	// empty.
	TailY float64 `json:"tailY"`

	// TrainingSamples is the number of valid samples the model was
	// fitted on.
	TrainingSamples int `json:"trainingSamples"`
}

// Peak returns the split point: the highest-throughput training sample.
func (r *Roofline) Peak() geom.Point {
	if len(r.Left) == 0 {
		return geom.Point{}
	}
	return r.Left[len(r.Left)-1]
}

// Eval returns the maximum-throughput estimate for operational intensity
// i. NaN inputs yield NaN. Negative intensities are clamped to zero. It
// builds the roofline's segment table on every call; repeated callers
// evaluate through an Ensemble, whose tables are memoized.
func (r *Roofline) Eval(i float64) float64 {
	return newChainEval(r).eval(i)
}

// lerpSeg interpolates one segment at i and clamps the result into the
// segment's endpoint range. With t in [0,1] the true value always lies
// between the endpoints, but when |y1-y0| dwarfs the result the final
// add cancels catastrophically and can escape the range entirely —
// FuzzSurfaceParams found a surface whose ceiling evaluated to 0
// against an envelope floor of 48, which would have clipped the
// reported bound to garbage. The clamp is a no-op whenever the
// arithmetic stays in range, so normal outputs are bit-unchanged, and
// NaN results pass through (comparisons with NaN are false).
func lerpSeg(x0, y0, x1, y1, i float64) float64 {
	t := (i - x0) / (x1 - x0)
	y := y0 + t*(y1-y0)
	lo, hi := y0, y1
	if lo > hi {
		lo, hi = hi, lo
	}
	if y < lo {
		return lo
	}
	if y > hi {
		return hi
	}
	return y
}

// CorruptSampleError identifies a sample rejected by strict fitting: one
// whose values (NaN/Inf, non-positive period, negative counts) would
// poison a fitted model.
type CorruptSampleError struct {
	// Metric is the metric being fitted.
	Metric string
	// Index is the sample's position in the slice passed to fitting.
	Index int
	// Sample is the offending sample verbatim.
	Sample Sample
}

// Error renders the rejection with the sample's values.
func (e *CorruptSampleError) Error() string {
	return fmt.Sprintf("core: corrupt sample for metric %q at index %d: %s",
		e.Metric, e.Index, e.Sample)
}

// FitRooflineStrict fits like FitRoofline but rejects the whole fit with a
// *CorruptSampleError naming the first invalid sample, instead of silently
// dropping invalid samples. Use it when corrupt input should be surfaced
// rather than tolerated (the CLI's -strict ingestion mode).
func FitRooflineStrict(metric string, samples []Sample) (*Roofline, error) {
	for i, s := range samples {
		if !s.Valid() {
			return nil, &CorruptSampleError{Metric: metric, Index: i, Sample: s}
		}
	}
	return FitRoofline(metric, samples)
}

// FitRoofline trains a roofline for one metric from its samples (paper
// §III-D). Invalid samples (NaN/Inf values, non-positive periods, negative
// counts) are dropped so a single corrupt sample cannot poison the model;
// use FitRooflineStrict to reject them loudly instead. ErrNoSamples is
// returned when no valid sample remains.
func FitRoofline(metric string, samples []Sample) (*Roofline, error) {
	var finite []geom.Point
	infY := math.Inf(-1) // best throughput among I = +Inf samples
	hasInf := false
	n := 0
	for _, s := range samples {
		if !s.Valid() {
			continue
		}
		p := s.Point()
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			continue
		}
		n++
		if math.IsInf(p.X, 1) {
			hasInf = true
			if p.Y > infY {
				infY = p.Y
			}
			continue
		}
		finite = append(finite, p)
	}
	if n == 0 {
		return nil, ErrNoSamples
	}
	r := &Roofline{Metric: metric, TrainingSamples: n}
	if len(finite) == 0 {
		// All samples had M = 0: the metric never fired. The bound is
		// the constant best observed throughput.
		r.Left = []geom.Point{{X: 0, Y: infY}}
		r.TailY = infY
		return r, nil
	}

	// Split at the highest-throughput finite sample.
	peak := finite[geom.MaxY(finite)]

	// Left region: convex-hull fit from the origin (paper Fig. 5).
	r.Left = geom.UpperHullFromOrigin(finite)

	// Right region: Pareto + shortest-path fit (paper Fig. 6) over the
	// samples at or beyond the peak, plus any I = +Inf samples.
	var right []geom.Point
	for _, p := range finite {
		if p.X >= peak.X {
			right = append(right, p)
		}
	}
	var inf *geom.Point
	if hasInf {
		inf = &geom.Point{X: math.Inf(1), Y: infY}
	}
	chain, tail, err := fitRight(right, inf)
	if err != nil {
		return nil, fmt.Errorf("core: fitting right region of %q: %w", metric, err)
	}
	r.Right = chain
	r.TailY = tail
	return r, nil
}

// CheckInvariants verifies the structural properties the paper requires of
// a fitted roofline and returns a descriptive error on the first
// violation. Used heavily by tests.
func (r *Roofline) CheckInvariants() error {
	if len(r.Left) == 0 {
		return fmt.Errorf("roofline %s: empty left chain", r.Metric)
	}
	prev := geom.Point{X: 0, Y: 0}
	prevSlope := math.Inf(1)
	for i, p := range r.Left {
		if p.X < prev.X || (p.X == prev.X && i > 0) {
			return fmt.Errorf("roofline %s: left chain not ascending at %d", r.Metric, i)
		}
		if p.Y < prev.Y {
			return fmt.Errorf("roofline %s: left chain decreasing at %d", r.Metric, i)
		}
		if p.X > prev.X {
			s := geom.Slope(prev, p)
			if s > prevSlope+1e-9*(1+math.Abs(prevSlope)) {
				return fmt.Errorf("roofline %s: left chain not concave-down at %d (slope %g after %g)", r.Metric, i, s, prevSlope)
			}
			prevSlope = s
		}
		prev = p
	}
	peak := r.Peak()
	if len(r.Right) > 0 {
		if r.Right[0].X < peak.X {
			return fmt.Errorf("roofline %s: right chain starts before peak", r.Metric)
		}
		if r.Right[0].Y > peak.Y+1e-9*(1+peak.Y) {
			return fmt.Errorf("roofline %s: right chain starts above peak", r.Metric)
		}
		prev = r.Right[0]
		prevSlope = math.Inf(-1)
		for i, p := range r.Right[1:] {
			if p.X <= prev.X {
				return fmt.Errorf("roofline %s: right chain not ascending at %d", r.Metric, i+1)
			}
			if p.Y > prev.Y+1e-9*(1+math.Abs(prev.Y)) {
				return fmt.Errorf("roofline %s: right chain increasing at %d", r.Metric, i+1)
			}
			s := geom.Slope(prev, p)
			if s < prevSlope-1e-9*(1+math.Abs(prevSlope)) {
				return fmt.Errorf("roofline %s: right chain not concave-up at %d (slope %g after %g)", r.Metric, i+1, s, prevSlope)
			}
			prevSlope = s
			prev = p
		}
		if math.Abs(r.TailY-r.Right[len(r.Right)-1].Y) > 1e-9*(1+math.Abs(r.TailY)) {
			return fmt.Errorf("roofline %s: tail %g does not match last right breakpoint %g", r.Metric, r.TailY, r.Right[len(r.Right)-1].Y)
		}
	}
	return nil
}

// Region identifies where an operational intensity falls relative to a
// roofline's peak, which determines how the metric relates to
// performance there (paper §III-B's qualitative trends).
type Region uint8

const (
	// RegionLeft: below the peak intensity — the metric behaves as
	// negatively associated with performance (more work per event
	// raises the bound), so reducing the event's rate should help.
	RegionLeft Region = iota
	// RegionPeak: at (or very near) the peak.
	RegionPeak
	// RegionRight: beyond the peak — the metric behaves as positively
	// associated with performance (the event accompanies fast
	// execution); the event becoming rarer accompanies lower bounds.
	RegionRight
)

// String names the region.
func (r Region) String() string {
	switch r {
	case RegionLeft:
		return "left"
	case RegionPeak:
		return "peak"
	case RegionRight:
		return "right"
	}
	return "?"
}

// Region classifies an operational intensity against the fitted peak,
// with a 2% relative band counted as "at the peak". NaN maps to the
// peak (no information).
func (r *Roofline) Region(i float64) Region {
	if len(r.Left) == 0 || math.IsNaN(i) {
		return RegionPeak
	}
	peak := r.Peak()
	lo := peak.X * 0.98
	hi := peak.X * 1.02
	switch {
	case i < lo:
		return RegionLeft
	case i > hi:
		return RegionRight
	default:
		return RegionPeak
	}
}
