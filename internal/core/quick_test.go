package core

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"spire/internal/geom"
)

// quickSamples decodes raw fuzz bytes into a plausible sample set. Values
// are kept small and varied: T in [1,16], W in [0,255], M in [0,63] with
// occasional zeros (I = +Inf).
func quickSamples(raw []byte) []Sample {
	var out []Sample
	for i := 0; i+2 < len(raw); i += 3 {
		out = append(out, Sample{
			Metric: "m",
			T:      float64(raw[i]%16 + 1),
			W:      float64(raw[i+1]),
			M:      float64(raw[i+2] % 64),
		})
	}
	return out
}

// TestQuickFitUpperBound: for arbitrary sample sets, the fitted roofline
// lies on or above every valid training sample.
func TestQuickFitUpperBound(t *testing.T) {
	f := func(raw []byte) bool {
		samples := quickSamples(raw)
		r, err := FitRoofline("m", samples)
		if err != nil {
			return err == ErrNoSamples
		}
		for _, s := range samples {
			p := s.Point()
			if math.IsNaN(p.X) || math.IsNaN(p.Y) {
				continue
			}
			if r.Eval(p.X) < p.Y-1e-9*(1+p.Y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFitInvariants: structural invariants hold for arbitrary inputs.
func TestQuickFitInvariants(t *testing.T) {
	f := func(raw []byte) bool {
		samples := quickSamples(raw)
		r, err := FitRoofline("m", samples)
		if err != nil {
			return err == ErrNoSamples
		}
		return r.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLeftRegionMonotone: the bound is non-decreasing from 0 up to
// the peak intensity.
func TestQuickLeftRegionMonotone(t *testing.T) {
	f := func(raw []byte) bool {
		samples := quickSamples(raw)
		r, err := FitRoofline("m", samples)
		if err != nil {
			return err == ErrNoSamples
		}
		peak := r.Peak()
		prev := -1.0
		for i := 0; i <= 32; i++ {
			x := peak.X * float64(i) / 32
			v := r.Eval(x)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRightRegionMonotone: beyond the first right-region breakpoint
// the bound is non-increasing (the horizontal peak segment ends there).
func TestQuickRightRegionMonotone(t *testing.T) {
	f := func(raw []byte) bool {
		samples := quickSamples(raw)
		r, err := FitRoofline("m", samples)
		if err != nil {
			return err == ErrNoSamples
		}
		if len(r.Right) == 0 {
			return true
		}
		lo := r.Right[0].X
		hi := r.Right[len(r.Right)-1].X * 1.5
		if hi <= lo {
			return true
		}
		prev := math.Inf(1)
		for i := 0; i <= 32; i++ {
			x := lo + (hi-lo)*float64(i)/32
			v := r.Eval(x)
			if v > prev+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSaveLoadEval: serialization round-trips preserve the model's
// predictions for arbitrary training sets and probe points.
func TestQuickSaveLoadEval(t *testing.T) {
	f := func(raw []byte, probes []uint16) bool {
		samples := quickSamples(raw)
		var d Dataset
		d.Add(samples...)
		ens, err := Train(d, TrainOptions{})
		if err != nil {
			return err == ErrNoSamples
		}
		var buf bytes.Buffer
		if err := ens.Save(&buf); err != nil {
			return false
		}
		loaded, err := LoadEnsemble(&buf)
		if err != nil {
			return false
		}
		r1 := ens.Rooflines["m"]
		r2 := loaded.Rooflines["m"]
		for _, p := range probes {
			x := float64(p) / 16
			a, b := r1.Eval(x), r2.Eval(x)
			if math.IsNaN(a) != math.IsNaN(b) {
				return false
			}
			if !math.IsNaN(a) && math.Abs(a-b) > 1e-12*(1+math.Abs(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEnsembleMinProperty: the ensemble estimate equals the minimum
// per-metric mean, and every per-metric mean is within the range of the
// roofline values of its samples.
func TestQuickEnsembleMinProperty(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) < 12 {
			return true
		}
		// Split raw into two metrics' training and a shared workload.
		half := len(raw) / 2
		train := quickSamples(raw[:half])
		for i := range train {
			if i%2 == 1 {
				train[i].Metric = "n"
			}
		}
		var d Dataset
		d.Add(train...)
		ens, err := Train(d, TrainOptions{})
		if err != nil {
			return true
		}
		wl := quickSamples(raw[half:])
		for i := range wl {
			if i%2 == 1 {
				wl[i].Metric = "n"
			}
		}
		var w Dataset
		w.Add(wl...)
		est, err := estimate(ens, w)
		if err != nil {
			return true
		}
		minMean := math.Inf(1)
		for _, m := range est.PerMetric {
			if m.MeanEstimate < minMean {
				minMean = m.MeanEstimate
			}
		}
		return est.MaxThroughput == minMean
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFitDeterminism: fitting is a pure function of its input.
func TestQuickFitDeterminism(t *testing.T) {
	f := func(raw []byte) bool {
		samples := quickSamples(raw)
		r1, err1 := FitRoofline("m", samples)
		r2, err2 := FitRoofline("m", samples)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		if len(r1.Left) != len(r2.Left) || len(r1.Right) != len(r2.Right) {
			return false
		}
		for i := range r1.Left {
			if r1.Left[i] != r2.Left[i] {
				return false
			}
		}
		for i := range r1.Right {
			if r1.Right[i] != r2.Right[i] {
				return false
			}
		}
		return r1.TailY == r2.TailY || (math.IsNaN(r1.TailY) && math.IsNaN(r2.TailY))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRightChainOnParetoFront: every right-region breakpoint is one
// of the Pareto-optimal training points (the fit only touches samples it
// is allowed to touch).
func TestQuickRightChainOnParetoFront(t *testing.T) {
	f := func(raw []byte) bool {
		samples := quickSamples(raw)
		r, err := FitRoofline("m", samples)
		if err != nil {
			return true
		}
		if len(r.Right) == 0 {
			return true
		}
		var pts []geom.Point
		for _, s := range samples {
			p := s.Point()
			if s.Valid() && !math.IsNaN(p.X) && !math.IsNaN(p.Y) && !math.IsInf(p.X, 1) {
				pts = append(pts, p)
			}
		}
		front := geom.ParetoFront(pts)
		onFront := make(map[geom.Point]bool, len(front))
		for _, p := range front {
			onFront[p] = true
		}
		for _, p := range r.Right {
			if !onFront[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
