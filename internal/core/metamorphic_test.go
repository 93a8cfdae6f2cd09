package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Metamorphic properties of the paper's Eq. 1 estimate. Each one follows
// from what the estimate means — a time-weighted mean of per-sample
// roofline estimates, plus a measured throughput that counts every
// collection period once — rather than from bytes an earlier version
// produced. The workloads share each period across several metrics, so
// every property runs through the contribution-ID dedup.

// periodWorkload builds the common collection shape: every period's
// (T, W, window) is sampled by several metrics at once, each with its own
// M, plus M = 0 (I = +Inf) rows, invalid rows and an unmodeled metric.
func periodWorkload(rng *rand.Rand) Dataset {
	names := []string{"alpha", "beta", "gamma", "delta", "unmodeled.event"}
	var d Dataset
	periods := 1 + rng.Intn(40)
	for p := 0; p < periods; p++ {
		t, w, window := 1+rng.Float64()*7, rng.Float64()*40, p/3
		for _, name := range names {
			if rng.Intn(4) == 0 {
				continue
			}
			s := Sample{Metric: name, T: t, W: w, M: rng.Float64() * 10, Window: window}
			if rng.Intn(15) == 0 {
				s.M = 0
			}
			if rng.Intn(20) == 0 {
				s.T = -s.T // invalid, dropped by indexing
			}
			d.Add(s)
		}
	}
	return d
}

// metamorphicCase trains a flat four-metric model and draws a workload.
func metamorphicCase(t *testing.T, seed int64) (*Ensemble, Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ens, err := Train(randMultiMetricDataset(rng, 4), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ens, periodWorkload(rng)
}

// estimatePair estimates the original and the transformed workload.
func estimatePair(t *testing.T, ens, ens2 *Ensemble, d, d2 Dataset) (*Estimation, *Estimation) {
	t.Helper()
	a, err := estimate(ens, d)
	if err != nil {
		t.Fatalf("original: %v", err)
	}
	b, err := estimate(ens2, d2)
	if err != nil {
		t.Fatalf("transformed: %v", err)
	}
	return a, b
}

// relClose reports whether got is within a relative 1e-9 of want,
// treating equal infinities and two NaNs as equal.
func relClose(got, want float64) bool {
	if got == want || (math.IsNaN(got) && math.IsNaN(want)) {
		return true
	}
	return math.Abs(got-want) <= 1e-9*math.Abs(want)
}

// byMetric indexes an estimation's per-metric results by name.
func byMetric(est *Estimation) map[string]MetricEstimate {
	out := make(map[string]MetricEstimate, len(est.PerMetric))
	for _, me := range est.PerMetric {
		out[me.Metric] = me
	}
	return out
}

// checkPerMetric compares every metric's result across two estimations:
// the same metric set, sampleScale times the samples, and estimates and
// intensities within a relative 1e-9.
func checkPerMetric(t *testing.T, got, want *Estimation, sampleScale int) {
	t.Helper()
	g, w := byMetric(got), byMetric(want)
	if len(g) != len(w) {
		t.Fatalf("%d metrics estimated, want %d", len(g), len(w))
	}
	for name, wm := range w {
		gm, ok := g[name]
		if !ok {
			t.Fatalf("metric %s missing", name)
		}
		if gm.Samples != sampleScale*wm.Samples {
			t.Fatalf("%s: %d samples, want %d", name, gm.Samples, sampleScale*wm.Samples)
		}
		if !relClose(gm.MeanEstimate, wm.MeanEstimate) || !relClose(gm.MeanIntensity, wm.MeanIntensity) {
			t.Fatalf("%s: estimate %v / intensity %v, want %v / %v",
				name, gm.MeanEstimate, gm.MeanIntensity, wm.MeanEstimate, wm.MeanIntensity)
		}
	}
}

// TestMetamorphicPermutation: Eq. 1 sums over samples and periods, so
// the order the collector delivered them in cannot matter beyond
// floating-point reassociation.
func TestMetamorphicPermutation(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		ens, d := metamorphicCase(t, seed)
		rng := rand.New(rand.NewSource(^seed))
		perm := Dataset{Samples: append([]Sample(nil), d.Samples...)}
		rng.Shuffle(len(perm.Samples), func(i, j int) {
			perm.Samples[i], perm.Samples[j] = perm.Samples[j], perm.Samples[i]
		})
		a, b := estimatePair(t, ens, ens, d, perm)
		checkPerMetric(t, b, a, 1)
		if !relClose(b.MaxThroughput, a.MaxThroughput) || !relClose(b.MeasuredThroughput, a.MeasuredThroughput) {
			t.Fatalf("seed %d: max/measured %v/%v, want %v/%v",
				seed, b.MaxThroughput, b.MeasuredThroughput, a.MaxThroughput, a.MeasuredThroughput)
		}
	}
}

// TestMetamorphicDuplication: appending a second copy of every sample
// doubles each metric's sample count but not its time-weighted mean, and
// adds no new period — the measured throughput, which counts each period
// once and first meets the copies after their originals, is bit-identical.
func TestMetamorphicDuplication(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		ens, d := metamorphicCase(t, seed)
		twice := Dataset{Samples: append(append([]Sample(nil), d.Samples...), d.Samples...)}
		a, b := estimatePair(t, ens, ens, d, twice)
		checkPerMetric(t, b, a, 2)
		if !bitsEqual(b.MeasuredThroughput, a.MeasuredThroughput) {
			t.Fatalf("seed %d: measured throughput %v, want %v bit for bit",
				seed, b.MeasuredThroughput, a.MeasuredThroughput)
		}
	}
}

// TestMetamorphicScaling: scaling W and every M by 2^k leaves each
// intensity I = W/M exactly unchanged, so on a flat model every
// per-metric result is bit-identical, while the measured throughput
// ΣW/ΣT scales by exactly 2^k (power-of-two scaling commutes with every
// rounding step).
func TestMetamorphicScaling(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		ens, d := metamorphicCase(t, seed)
		k := int(seed%21) - 10
		f := math.Ldexp(1, k)
		scaled := Dataset{Samples: append([]Sample(nil), d.Samples...)}
		for i := range scaled.Samples {
			scaled.Samples[i].W *= f
			scaled.Samples[i].M *= f
		}
		a, b := estimatePair(t, ens, ens, d, scaled)
		if fmt.Sprintf("%#v", b.PerMetric) != fmt.Sprintf("%#v", a.PerMetric) {
			t.Fatalf("seed %d, k=%d: PerMetric changed:\n got %#v\nwant %#v", seed, k, b.PerMetric, a.PerMetric)
		}
		if want := a.MeasuredThroughput * f; !bitsEqual(b.MeasuredThroughput, want) {
			t.Fatalf("seed %d, k=%d: measured throughput %v, want exactly %v", seed, k, b.MeasuredThroughput, want)
		}
	}
}

// TestMetamorphicRename: metric names are labels. Renaming them one to
// one in the model and the workload gives the same ranking under the new
// names — each position's estimate bit-identical, since a metric's mean
// is computed from its own samples alone — with metrics reordered only
// within runs of exactly tied estimates, where the name breaks the tie.
func TestMetamorphicRename(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		ens, d := metamorphicCase(t, seed)
		rng := rand.New(rand.NewSource(^seed))
		old := []string{"alpha", "beta", "gamma", "delta", "unmodeled.event"}
		fresh := []string{"r.0", "r.1", "r.2", "r.3", "r.4"}
		rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
		rename := make(map[string]string, len(old))
		for i, name := range old {
			rename[name] = fresh[i]
		}
		ens2 := &Ensemble{Rooflines: make(map[string]*Roofline, len(ens.Rooflines))}
		for name, r := range ens.Rooflines {
			ens2.Rooflines[rename[name]] = r
		}
		d2 := Dataset{Samples: append([]Sample(nil), d.Samples...)}
		for i := range d2.Samples {
			d2.Samples[i].Metric = rename[d2.Samples[i].Metric]
		}
		a, b := estimatePair(t, ens, ens2, d, d2)
		if len(b.PerMetric) != len(a.PerMetric) {
			t.Fatalf("seed %d: %d ranked metrics, want %d", seed, len(b.PerMetric), len(a.PerMetric))
		}
		for lo := 0; lo < len(a.PerMetric); {
			hi := lo + 1
			for hi < len(a.PerMetric) && a.PerMetric[hi].MeanEstimate == a.PerMetric[lo].MeanEstimate {
				hi++
			}
			var want, got []string
			for i := lo; i < hi; i++ {
				wm, gm := a.PerMetric[i], b.PerMetric[i]
				if !bitsEqual(gm.MeanEstimate, wm.MeanEstimate) {
					t.Fatalf("seed %d: rank %d estimate %v, want %v", seed, i, gm.MeanEstimate, wm.MeanEstimate)
				}
				want = append(want, rename[wm.Metric])
				got = append(got, gm.Metric)
			}
			sort.Strings(want)
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d: ranks %d..%d hold %v, want %v", seed, lo, hi-1, got, want)
			}
			lo = hi
		}
		if b.MaxThroughput != a.MaxThroughput || !relClose(b.MeasuredThroughput, a.MeasuredThroughput) {
			t.Fatalf("seed %d: max/measured %v/%v, want %v/%v",
				seed, b.MaxThroughput, b.MeasuredThroughput, a.MaxThroughput, a.MeasuredThroughput)
		}
	}
}
