package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// Ensemble is a trained SPIRE model: one roofline per performance metric
// (paper §III-C, Fig. 3). Rooflines are immutable once trained (or
// loaded): every method on a trained ensemble is safe for concurrent use.
type Ensemble struct {
	// Rooflines maps metric name to its fitted roofline.
	Rooflines map[string]*Roofline `json:"rooflines"`
	// WorkUnit and TimeUnit document the throughput units the model was
	// trained with (e.g. "instructions" / "cycles" for IPC). They are
	// informational; SPIRE itself is unit-agnostic as long as training
	// and estimation agree.
	WorkUnit string `json:"workUnit"`
	TimeUnit string `json:"timeUnit"`
	// Hierarchy optionally maps memory-hierarchy levels onto traffic
	// metrics and carries parameterized roofline surfaces (hierarchy.go).
	// Flat models omit it and estimate byte-identically to models that
	// never had the field.
	Hierarchy *HierarchyModel `json:"hierarchy,omitempty"`

	// evalOnce/evals lazily memoize the flattened segment tables
	// BatchEstimate evaluates rooflines through (see batch.go), plus the
	// sorted metric-name list the coverage merge-walk scans and the
	// surface segment tables for the hierarchy's parameterized ceilings.
	evalOnce    sync.Once
	evals       map[string]*chainEval
	sortedNames []string
	surfEvals   []*chainEval
}

// Metrics returns the sorted metric names the ensemble models.
func (e *Ensemble) Metrics() []string {
	names := make([]string, 0, len(e.Rooflines))
	for n := range e.Rooflines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MetricEstimate is a per-metric aggregate over a workload's samples: the
// time-weighted average of the per-sample roofline estimations (paper
// Eq. 1), plus bookkeeping for analysis output.
type MetricEstimate struct {
	Metric string `json:"metric"`
	// MeanEstimate is P̄_x: the time-weighted average max-throughput
	// estimate for this metric.
	MeanEstimate float64 `json:"meanEstimate"`
	// Samples is the number of workload samples that contributed.
	Samples int `json:"samples"`
	// MeanIntensity is the time-weighted average operational intensity
	// of the contributing samples (+Inf allowed), useful when
	// interpreting the ranking.
	MeanIntensity float64 `json:"meanIntensity"`
}

// CoverageReport describes the metric overlap between a trained model and
// a workload dataset, so partial-coverage estimations (real collections
// rarely carry the exact training event set) are visible instead of
// silent.
type CoverageReport struct {
	// ModelMetrics and DataMetrics count the metrics each side knows.
	ModelMetrics int `json:"modelMetrics"`
	DataMetrics  int `json:"dataMetrics"`
	// Shared counts metrics present on both sides — the ones that
	// contributed to the estimation.
	Shared int `json:"shared"`
	// DataOnly lists workload metrics the model has no roofline for
	// (their samples were skipped), sorted.
	DataOnly []string `json:"dataOnly,omitempty"`
	// ModelOnly lists modeled metrics the workload never measured
	// (they did not constrain the estimate), sorted.
	ModelOnly []string `json:"modelOnly,omitempty"`
}

// Estimation is the result of running a workload's dataset through a
// trained ensemble (paper Fig. 4).
type Estimation struct {
	// PerMetric holds one entry per metric that had both a roofline and
	// at least one valid workload sample, sorted ascending by
	// MeanEstimate — the paper's bottleneck ranking order.
	PerMetric []MetricEstimate `json:"perMetric"`
	// MaxThroughput is the ensemble-wide estimate: the minimum of the
	// per-metric means.
	MaxThroughput float64 `json:"maxThroughput"`
	// MeasuredThroughput is the workload's actual time-weighted
	// throughput over all samples (e.g. its measured IPC).
	MeasuredThroughput float64 `json:"measuredThroughput"`
	// Coverage reports how well the model's metric set and the
	// workload's overlapped.
	Coverage CoverageReport `json:"coverage"`
	// Hierarchy reports the binding memory-hierarchy level when the model
	// carries a hierarchy and at least two levels had measured traffic;
	// nil otherwise (hierarchy.go). Purely additive: the flat fields
	// above are identical with and without it.
	Hierarchy *HierarchyEstimate `json:"hierarchy,omitempty"`
	// Combined partitions wall time into on-CPU vs off-CPU and merges
	// roofline verdicts with wait-for-graph verdicts (sched.go). Only
	// set when the workload carried scheduler events; nil otherwise, so
	// scheduler-free estimations encode byte-identically to before.
	Combined *CombinedReport `json:"combined,omitempty"`
}

// Estimate runs the ensemble-level estimation process of paper Fig. 4:
// group the workload's samples by metric, estimate each sample with its
// metric's roofline, merge per metric with a time-weighted average, and
// take the minimum across metrics. ErrNoSamples is returned when no sample
// matches a modeled metric.
//
// Estimate is a convenience shim over the one estimation implementation in
// this package: it indexes the workload and delegates to BatchEstimate
// (engine callers index once and reuse). The output is byte-identical to
// the historical serial implementation; the differential suite in
// internal/engine pins that equivalence.
func (e *Ensemble) Estimate(workload Dataset) (*Estimation, error) {
	return e.BatchEstimate(context.Background(), IndexWorkload(workload), EstimateOptions{})
}

type measureKey struct {
	t, w   float64
	window int
}

// coverageOf computes the metric overlap between the model and a
// workload's measured metric set.
func (e *Ensemble) coverageOf(metrics []string) CoverageReport {
	e.evaluators() // memoize sortedNames
	var cov CoverageReport
	e.coverageInto(metrics, &cov)
	return cov
}

// coverageInto writes the metric overlap between the model and a
// workload's sorted measured metric set into cov, reusing its slice
// capacities. Both inputs are sorted, so one merge walk produces the
// sorted DataOnly/ModelOnly lists with no per-call maps. The caller must
// have run evaluators() (which memoizes e.sortedNames).
func (e *Ensemble) coverageInto(metrics []string, cov *CoverageReport) {
	model := e.sortedNames
	cov.ModelMetrics = len(e.Rooflines)
	cov.DataMetrics = len(metrics)
	cov.Shared = 0
	cov.DataOnly = cov.DataOnly[:0]
	cov.ModelOnly = cov.ModelOnly[:0]
	i, j := 0, 0
	for i < len(model) && j < len(metrics) {
		switch {
		case model[i] == metrics[j]:
			cov.Shared++
			i++
			j++
		case model[i] < metrics[j]:
			cov.ModelOnly = append(cov.ModelOnly, model[i])
			i++
		default:
			cov.DataOnly = append(cov.DataOnly, metrics[j])
			j++
		}
	}
	cov.ModelOnly = append(cov.ModelOnly, model[i:]...)
	cov.DataOnly = append(cov.DataOnly, metrics[j:]...)
}

// TopMetrics returns the k lowest-estimate metrics — the paper's candidate
// bottleneck pool (§III-C, "Performance analysis"). Fewer than k entries
// are returned when the estimation covers fewer metrics.
func (est *Estimation) TopMetrics(k int) []MetricEstimate {
	if k > len(est.PerMetric) {
		k = len(est.PerMetric)
	}
	out := make([]MetricEstimate, k)
	copy(out, est.PerMetric[:k])
	return out
}

// Rank returns the 1-based rank of the metric in the ascending estimate
// ordering, or 0 when the metric is absent.
func (est *Estimation) Rank(metric string) int {
	for i, m := range est.PerMetric {
		if m.Metric == metric {
			return i + 1
		}
	}
	return 0
}

// Estimate1 estimates a single metric's bound for one intensity value; a
// convenience for exploratory use and plotting.
func (e *Ensemble) Estimate1(metric string, intensity float64) (float64, error) {
	ce, ok := e.evaluators()[metric]
	if !ok {
		return 0, fmt.Errorf("core: no roofline for metric %q", metric)
	}
	return ce.eval(intensity), nil
}
