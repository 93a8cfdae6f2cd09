package core

import (
	"context"
	"math"
	"math/rand"
	"sort"
)

// CIOptions configures bootstrap confidence intervals.
type CIOptions struct {
	// Resamples is the number of bootstrap resamples (default 200).
	Resamples int
	// Confidence is the interval mass (default 0.90).
	Confidence float64
	// Seed drives the resampling (default 1).
	Seed int64
}

func (o *CIOptions) setDefaults() {
	if o.Resamples <= 0 {
		o.Resamples = 200
	}
	if o.Confidence <= 0 || o.Confidence >= 1 {
		o.Confidence = 0.90
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// MetricEstimateCI is a per-metric estimate with a bootstrap confidence
// interval on the time-weighted mean. The interval captures sampling
// noise — the paper's §III-C concern that "measurement noise and
// imperfect modeling may cause some uncertainty in these values".
type MetricEstimateCI struct {
	MetricEstimate
	// Lo and Hi bound the time-weighted mean estimate at the requested
	// confidence.
	Lo, Hi float64
}

// EstimationCI is an estimation with per-metric uncertainty.
type EstimationCI struct {
	// PerMetric is sorted ascending by MeanEstimate, like Estimation.
	PerMetric []MetricEstimateCI
	// MaxThroughput and MeasuredThroughput mirror Estimation.
	MaxThroughput      float64
	MeasuredThroughput float64
}

// EstimateWithCI estimates a workload and bootstraps a confidence
// interval for each metric's time-weighted mean by resampling that
// metric's samples with replacement.
func (e *Ensemble) EstimateWithCI(workload Dataset, opts CIOptions) (*EstimationCI, error) {
	opts.setDefaults()
	ix := IndexWorkload(workload)
	base, err := e.BatchEstimate(context.Background(), ix, EstimateOptions{})
	if err != nil {
		return nil, err
	}
	evals := e.evaluators()
	rng := rand.New(rand.NewSource(opts.Seed))

	out := &EstimationCI{
		MaxThroughput:      base.MaxThroughput,
		MeasuredThroughput: base.MeasuredThroughput,
	}
	alpha := (1 - opts.Confidence) / 2
	for _, m := range base.PerMetric {
		ce := evals[m.Metric]
		im := ix.groups[m.Metric]
		// Precompute (estimate, weight) pairs once; resampling is then
		// index shuffling only.
		type ew struct{ est, w float64 }
		var pairs []ew
		for j, intensity := range im.intens {
			p := ce.eval(intensity)
			if math.IsNaN(p) {
				continue
			}
			pairs = append(pairs, ew{est: p, w: im.t[j]})
		}
		ci := MetricEstimateCI{MetricEstimate: m, Lo: m.MeanEstimate, Hi: m.MeanEstimate}
		if len(pairs) >= 2 {
			means := make([]float64, 0, opts.Resamples)
			for b := 0; b < opts.Resamples; b++ {
				var num, den float64
				for range pairs {
					p := pairs[rng.Intn(len(pairs))]
					num += p.est * p.w
					den += p.w
				}
				if den > 0 {
					means = append(means, num/den)
				}
			}
			if len(means) > 0 {
				sort.Float64s(means)
				ci.Lo = quantileSorted(means, alpha)
				ci.Hi = quantileSorted(means, 1-alpha)
			}
		}
		out.PerMetric = append(out.PerMetric, ci)
	}
	return out, nil
}

// quantileSorted interpolates the q-th quantile of an ascending slice.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// BindingPool returns the metrics whose confidence interval overlaps the
// binding (lowest-estimate) metric's interval — the statistically
// justified version of the paper's "pool of low-valued metrics". The
// binding metric itself is always included.
func (est *EstimationCI) BindingPool() []MetricEstimateCI {
	if len(est.PerMetric) == 0 {
		return nil
	}
	binding := est.PerMetric[0]
	var pool []MetricEstimateCI
	for _, m := range est.PerMetric {
		if m.Lo <= binding.Hi {
			pool = append(pool, m)
		}
	}
	return pool
}
