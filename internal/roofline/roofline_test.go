package roofline

import (
	"math"
	"testing"
)

func model(t *testing.T) *Model {
	t.Helper()
	m, err := New(4, 16,
		Ceiling{Name: "DRAM", Kind: Bandwidth, Value: 8},
		Ceiling{Name: "scalar", Kind: Compute, Value: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 8); err == nil {
		t.Error("zero throughput should fail")
	}
	if _, err := New(4, -1); err == nil {
		t.Error("negative bandwidth should fail")
	}
	if _, err := New(4, 8, Ceiling{Name: "bad", Value: 0}); err == nil {
		t.Error("zero ceiling should fail")
	}
	if _, err := New(math.NaN(), 8); err == nil {
		t.Error("NaN throughput should fail")
	}
}

func TestAttainable(t *testing.T) {
	m := model(t)
	cases := []struct{ i, want float64 }{
		{0, 0},
		{0.1, 1.6},
		{0.25, 4}, // exactly the ridge point
		{1, 4},    // compute roof
		{100, 4},
	}
	for _, c := range cases {
		if got := m.Attainable(c.i); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Attainable(%g) = %g, want %g", c.i, got, c.want)
		}
	}
	if got := m.Attainable(math.Inf(1)); got != 4 {
		t.Errorf("Attainable(+Inf) = %g, want 4", got)
	}
	if got := m.Attainable(-1); got != 0 {
		t.Errorf("Attainable(-1) = %g, want 0 (clamped)", got)
	}
	if got := m.Attainable(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Attainable(NaN) = %g, want NaN", got)
	}
}

func TestRidgeAndClassify(t *testing.T) {
	m := model(t)
	if got := m.RidgePoint(); got != 0.25 {
		t.Errorf("ridge = %g, want 0.25", got)
	}
	if m.Classify(0.1) != MemoryBound {
		t.Error("low intensity should be memory-bound")
	}
	if m.Classify(1) != ComputeBound {
		t.Error("high intensity should be compute-bound")
	}
	if MemoryBound.String() != "memory-bound" || ComputeBound.String() != "compute-bound" {
		t.Error("bound names wrong")
	}
}

func TestAttainableUnder(t *testing.T) {
	m := model(t)
	got, err := m.AttainableUnder("DRAM", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("DRAM ceiling at 0.25 = %g, want 2", got)
	}
	got, err = m.AttainableUnder("scalar", 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("scalar ceiling = %g, want 1", got)
	}
	if _, err := m.AttainableUnder("nope", 1); err == nil {
		t.Error("unknown ceiling should fail")
	}
}

func TestSeries(t *testing.T) {
	m := model(t)
	pts, err := m.Series(0.01, 100, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 32 {
		t.Fatalf("series length %d", len(pts))
	}
	if math.Abs(pts[0].I-0.01) > 1e-9 || math.Abs(pts[31].I-100) > 1e-6 {
		t.Errorf("endpoints: %g .. %g", pts[0].I, pts[31].I)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].I <= pts[i-1].I {
			t.Fatal("series not increasing in I")
		}
		if pts[i].P < pts[i-1].P-1e-9 {
			t.Fatal("roofline curve must be non-decreasing")
		}
	}
	if _, err := m.Series(0, 1, 8); err == nil {
		t.Error("lo=0 should fail (log spacing)")
	}
	if _, err := m.Series(1, 1, 8); err == nil {
		t.Error("hi<=lo should fail")
	}
	if _, err := m.Series(1, 2, 1); err == nil {
		t.Error("n<2 should fail")
	}
}
