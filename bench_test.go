// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§IV-V), plus the ablation studies from DESIGN.md §7 and
// micro-benchmarks of the core algorithms.
//
// Each experiment benchmark reports its headline quantities via
// b.ReportMetric so that `go test -bench=.` doubles as the reproduction
// log: e.g. BenchmarkTable2TopMetrics reports per-workload SPIRE/TMA
// agreement, BenchmarkSamplingOverhead the mean/max overhead fractions.
//
// The expensive part — simulating all 27 workloads and training the
// ensemble — runs once per process (shared session, reduced scale) and is
// excluded from the timed region.
package spire_test

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"spire/internal/analysis"
	"spire/internal/core"
	"spire/internal/engine"
	"spire/internal/experiments"
	"spire/internal/geom"
	"spire/internal/isa"
	"spire/internal/pmu"
	"spire/internal/sim"
	"spire/internal/trace"
	"spire/internal/uarch"
	"spire/internal/workloads"
)

var (
	benchOnce sync.Once
	benchSess *experiments.Session
)

// benchSession builds (once) the shared reduced-scale pipeline: all 27
// workloads simulated, sampled, and the ensemble trained.
func benchSession(b testing.TB) *experiments.Session {
	b.Helper()
	benchOnce.Do(func() {
		benchSess = experiments.NewSession(experiments.QuickConfig())
	})
	// Force the memoized state so no benchmark times the warmup.
	if _, err := benchSess.Ensemble(); err != nil {
		b.Fatal(err)
	}
	if _, err := benchSess.TestRuns(); err != nil {
		b.Fatal(err)
	}
	return benchSess
}

// BenchmarkTable1Workloads regenerates Table I: the TMA classification of
// all 27 workloads. Reports how many match their engineered bottleneck.
func BenchmarkTable1Workloads(b *testing.B) {
	s := benchSession(b)
	b.ResetTimer()
	var match, total int
	for i := 0; i < b.N; i++ {
		rows, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		match, total = 0, 0
		for _, r := range rows {
			if r.Expected == pmu.AreaRetiring {
				continue
			}
			total++
			if r.Main == r.Expected {
				match++
			}
		}
	}
	b.ReportMetric(float64(match), "matched")
	b.ReportMetric(float64(total), "classified")
}

// BenchmarkTable2TopMetrics regenerates Table II: SPIRE's top-10 metrics
// for the four test workloads. Reports the mean fraction of top metrics
// sharing TMA's main bottleneck area and the mean estimate/measured IPC
// ratio.
func BenchmarkTable2TopMetrics(b *testing.B) {
	s := benchSession(b)
	b.ResetTimer()
	var agree, ratio float64
	for i := 0; i < b.N; i++ {
		cols, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		agree, ratio = 0, 0
		for _, c := range cols {
			agree += c.FracMatchingTMA
			if c.MeasuredIPC > 0 {
				ratio += c.SpireEstimate / c.MeasuredIPC
			}
		}
		agree /= float64(len(cols))
		ratio /= float64(len(cols))
	}
	b.ReportMetric(agree, "tma-agreement")
	b.ReportMetric(ratio, "est/measured")
}

// BenchmarkFig2Roofline regenerates the classic-roofline figure and
// reports the two apps' operational intensities.
func BenchmarkFig2Roofline(b *testing.B) {
	s := benchSession(b)
	b.ResetTimer()
	var memI, compI float64
	for i := 0; i < b.N; i++ {
		fig, err := s.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range fig.Apps {
			if a.Name == "onnx" {
				memI = a.Intensity
			} else {
				compI = a.Intensity
			}
		}
	}
	b.ReportMetric(memI, "onnx-I")
	b.ReportMetric(compI, "blas-I")
}

// BenchmarkFig5LeftFit regenerates the left-region fitting walkthrough.
func BenchmarkFig5LeftFit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := experiments.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		if len(d.Roofline.Left) == 0 {
			b.Fatal("empty fit")
		}
	}
}

// BenchmarkFig6RightFit regenerates the right-region fitting walkthrough
// and reports the optimal fit's total squared error.
func BenchmarkFig6RightFit(b *testing.B) {
	var sq float64
	for i := 0; i < b.N; i++ {
		d, err := experiments.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		sq = d.TotalSquaredError
	}
	b.ReportMetric(sq, "sq-error")
}

// BenchmarkFig7LearnedRooflines regenerates the learned-roofline plots
// for BP.1 and DB.2 and reports their peak bounds.
func BenchmarkFig7LearnedRooflines(b *testing.B) {
	s := benchSession(b)
	b.ResetTimer()
	var bp1Peak, db2Peak float64
	for i := 0; i < b.N; i++ {
		figs, err := s.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		bp1Peak = figs[0].Roofline.Peak().Y
		db2Peak = figs[1].Roofline.Peak().Y
	}
	b.ReportMetric(bp1Peak, "bp1-peak-ipc")
	b.ReportMetric(db2Peak, "db2-peak-ipc")
}

// BenchmarkSamplingOverhead regenerates the §IV overhead numbers (paper:
// 1.6% average, 4.6% max).
func BenchmarkSamplingOverhead(b *testing.B) {
	s := benchSession(b)
	b.ResetTimer()
	var mean, max float64
	for i := 0; i < b.N; i++ {
		oh, err := s.Overhead()
		if err != nil {
			b.Fatal(err)
		}
		mean, max = oh.Mean, oh.Max
	}
	b.ReportMetric(100*mean, "mean-%")
	b.ReportMetric(100*max, "max-%")
}

// --- ablations (DESIGN.md §7) ------------------------------------------

// BenchmarkAblationTWA compares time-weighted vs unweighted merging.
func BenchmarkAblationTWA(b *testing.B) {
	s := benchSession(b)
	b.ResetTimer()
	var overlap float64
	for i := 0; i < b.N; i++ {
		res, err := s.AblationTWA()
		if err != nil {
			b.Fatal(err)
		}
		overlap = 0
		for _, r := range res {
			overlap += r.OverlapTop10
		}
		overlap /= float64(len(res))
	}
	b.ReportMetric(overlap, "top10-overlap")
}

// BenchmarkAblationEnsembleReduction compares min vs mean reduction.
func BenchmarkAblationEnsembleReduction(b *testing.B) {
	s := benchSession(b)
	b.ResetTimer()
	var minR, meanR float64
	for i := 0; i < b.N; i++ {
		res, err := s.AblationEnsembleReduction()
		if err != nil {
			b.Fatal(err)
		}
		minR, meanR = 0, 0
		for _, r := range res {
			minR += r.MinRatio
			meanR += r.MeanRatio
		}
		minR /= float64(len(res))
		meanR /= float64(len(res))
	}
	b.ReportMetric(minR, "min/measured")
	b.ReportMetric(meanR, "mean/measured")
}

// BenchmarkAblationMultiplex compares multiplexed vs oracle sampling.
func BenchmarkAblationMultiplex(b *testing.B) {
	s := benchSession(b)
	b.ResetTimer()
	var overlap float64
	for i := 0; i < b.N; i++ {
		res, err := s.AblationMultiplex()
		if err != nil {
			b.Fatal(err)
		}
		overlap = 0
		for _, r := range res {
			overlap += r.OverlapTop10
		}
		overlap /= float64(len(res))
	}
	b.ReportMetric(overlap, "top10-overlap")
}

// BenchmarkAblationTrainingSize sweeps the training-set size.
func BenchmarkAblationTrainingSize(b *testing.B) {
	s := benchSession(b)
	b.ResetTimer()
	var small, full float64
	for i := 0; i < b.N; i++ {
		pts, err := s.AblationTrainingSize([]int{4, 23})
		if err != nil {
			b.Fatal(err)
		}
		small, full = pts[0].MeanOverlapTop10, pts[1].MeanOverlapTop10
	}
	b.ReportMetric(small, "overlap@4")
	b.ReportMetric(full, "overlap@23")
}

// BenchmarkAblationRightFitGreedy compares the Dijkstra right fit's
// squared error against the greedy alternative on random fronts.
func BenchmarkAblationRightFitGreedy(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	fronts := make([][]geom.Point, 50)
	for i := range fronts {
		n := 4 + rng.Intn(12)
		front := make([]geom.Point, n)
		x, y := 1.0, 100.0
		for j := 0; j < n; j++ {
			x += 0.5 + rng.Float64()*3
			y *= 0.4 + rng.Float64()*0.55
			front[j] = geom.Point{X: x, Y: y}
		}
		fronts[i] = front
	}
	b.ResetTimer()
	var dijkstraWins int
	for i := 0; i < b.N; i++ {
		dijkstraWins = 0
		for _, front := range fronts {
			var samples []core.Sample
			for _, p := range front {
				samples = append(samples, core.Sample{Metric: "m", T: 1, W: p.Y, M: p.Y / p.X})
			}
			r, err := core.FitRoofline("m", samples)
			if err != nil {
				b.Fatal(err)
			}
			if experiments.RightFitError(r, front) < experiments.GreedyRightFit(front)-1e-9 {
				dijkstraWins++
			}
		}
	}
	b.ReportMetric(float64(dijkstraWins), "strict-wins/50")
}

// --- micro-benchmarks ---------------------------------------------------

// BenchmarkFitRoofline times fitting one metric roofline on 3k samples
// (the paper's per-metric training volume).
func BenchmarkFitRoofline(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	samples := make([]core.Sample, 3000)
	for i := range samples {
		iX := math1p(rng.ExpFloat64() * 20)
		p := 4 * iX / (iX + 10) * (0.7 + 0.3*rng.Float64())
		w := p * 1000
		samples[i] = core.Sample{Metric: "m", T: 1000, W: w, M: w / iX}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FitRoofline("m", samples); err != nil {
			b.Fatal(err)
		}
	}
}

func math1p(x float64) float64 { return 1 + x }

// fresh holds the latest freshly allocated Estimation of the uncached
// benchmark loops, so that each op allocates it on the heap as a caller
// keeping its result does: BatchEstimateInto does not retain est, and an
// unreferenced new(core.Estimation) would live on the stack.
var fresh *core.Estimation

// BenchmarkEnsembleEstimate times a full workload estimation against the
// trained ensemble with no cache: every op re-indexes the workload and
// estimates into a fresh Estimation.
func BenchmarkEnsembleEstimate(b *testing.B) {
	s := benchSession(b)
	ens, err := s.Ensemble()
	if err != nil {
		b.Fatal(err)
	}
	runs, err := s.TestRuns()
	if err != nil {
		b.Fatal(err)
	}
	data := runs[0].Data
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh = new(core.Estimation)
		if err := ens.BatchEstimateInto(ctx, core.IndexWorkload(data), core.EstimateOptions{}, fresh); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRepeatedEstimate times the steady-state serve/watch
// pattern: the same workload estimated repeatedly through the unified
// engine, whose content-hash index cache and pooled scratch turn the
// per-call cost into (cached index lookup + pooled evaluation). Compare
// allocs/op against BenchmarkEnsembleEstimate, which re-indexes every
// call; BENCH_engine.json records the gap.
func BenchmarkEngineRepeatedEstimate(b *testing.B) {
	s := benchSession(b)
	ens, err := s.Ensemble()
	if err != nil {
		b.Fatal(err)
	}
	runs, err := s.TestRuns()
	if err != nil {
		b.Fatal(err)
	}
	data := runs[0].Data
	eng := engine.New(engine.Options{})
	ctx := context.Background()
	// Warm the index cache once — steady state is what serve/watch see.
	if _, err := eng.Estimate(ctx, ens, data); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Estimate(ctx, ens, data); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTrainingDataset concatenates every sample (training + test
// workloads) from the shared session for the parallel-training benchmark.
func benchTrainingDataset(b *testing.B) core.Dataset {
	b.Helper()
	s := benchSession(b)
	data, err := s.TrainingDataset()
	if err != nil {
		b.Fatal(err)
	}
	runs, err := s.TestRuns()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range runs {
		data.Merge(r.Data)
	}
	return data
}

// BenchmarkTrainParallel times parallel ensemble training (Workers = 0 ⇒
// GOMAXPROCS) on the full-session dataset and reports the speedup over a
// serial fit measured in the same process.
func BenchmarkTrainParallel(b *testing.B) {
	data := benchTrainingDataset(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.TrainContext(ctx, data, core.TrainOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	parallelPerOp := b.Elapsed() / time.Duration(b.N)
	serialStart := time.Now()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.TrainContext(ctx, data, core.TrainOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	serialPerOp := time.Since(serialStart) / time.Duration(b.N)
	if parallelPerOp > 0 {
		b.ReportMetric(float64(serialPerOp)/float64(parallelPerOp), "speedup-vs-serial")
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// BenchmarkBatchEstimate times the steady-state columnar estimation hot
// path — pre-indexed workload, flattened segment tables, inline serial
// merge, one reused Estimation — and reports the speedup over the naive
// index-and-estimate-per-call path. This is the loop a saturated
// `spire serve` or stream re-estimation runs per request, and it must
// stay at 0 allocs/op (`make bench-gate` enforces both dimensions
// against BENCH_core_columnar.json).
func BenchmarkBatchEstimate(b *testing.B) {
	s := benchSession(b)
	ens, err := s.Ensemble()
	if err != nil {
		b.Fatal(err)
	}
	runs, err := s.TestRuns()
	if err != nil {
		b.Fatal(err)
	}
	data := runs[0].Data
	ix := core.IndexWorkload(data)
	ctx := context.Background()
	var est core.Estimation
	opts := core.EstimateOptions{}
	// Warm the reused Estimation's slice capacities once.
	if err := ens.BatchEstimateInto(ctx, ix, opts, &est); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ens.BatchEstimateInto(ctx, ix, opts, &est); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	batchPerOp := b.Elapsed() / time.Duration(b.N)
	naiveStart := time.Now()
	for i := 0; i < b.N; i++ {
		fresh = new(core.Estimation)
		if err := ens.BatchEstimateInto(ctx, core.IndexWorkload(data), opts, fresh); err != nil {
			b.Fatal(err)
		}
	}
	naivePerOp := time.Since(naiveStart) / time.Duration(b.N)
	if batchPerOp > 0 {
		b.ReportMetric(float64(naivePerOp)/float64(batchPerOp), "speedup-vs-naive")
	}
}

// hierarchicalEnsemble attaches the default four-level hierarchy and
// the two calibration surfaces to the session ensemble, sharing the
// fitted rooflines (the hierarchy is evaluation-time metadata).
func hierarchicalEnsemble(ens *core.Ensemble) *core.Ensemble {
	return &core.Ensemble{
		Rooflines: ens.Rooflines,
		WorkUnit:  ens.WorkUnit,
		TimeUnit:  ens.TimeUnit,
		Hierarchy: &core.HierarchyModel{
			Levels: core.DefaultHierarchyLevels(),
			Surfaces: []core.Surface{
				{Name: "sparsity", Param: "br_misp_retired.all_branches", Points: []core.SurfacePoint{
					{Param: 0, Ceiling: 4}, {Param: 0.02, Ceiling: 3.1}, {Param: 0.1, Ceiling: 1.8},
				}},
				{Name: "vec-width-mix", Param: "uops_issued.vector_width_mismatch", Points: []core.SurfacePoint{
					{Param: 0, Ceiling: 4}, {Param: 0.05, Ceiling: 2.6}, {Param: 0.25, Ceiling: 1.2},
				}},
			},
		},
	}
}

// BenchmarkHierarchicalEstimate is BenchmarkBatchEstimate's workload
// through a model carrying the four-level hierarchy and both surfaces:
// the same columnar steady state (caller-held index, reused Estimation)
// plus the binding-level and surface evaluation on every op.
// `make bench-gate` holds it to 0 allocs/op and within 20% of the flat
// BENCH_core_columnar.json recording (see BENCH_hierarchy.json).
func BenchmarkHierarchicalEstimate(b *testing.B) {
	s := benchSession(b)
	ens, err := s.Ensemble()
	if err != nil {
		b.Fatal(err)
	}
	hier := hierarchicalEnsemble(ens)
	runs, err := s.TestRuns()
	if err != nil {
		b.Fatal(err)
	}
	ix := core.IndexWorkload(runs[0].Data)
	ctx := context.Background()
	var est core.Estimation
	opts := core.EstimateOptions{}
	if err := hier.BatchEstimateInto(ctx, ix, opts, &est); err != nil {
		b.Fatal(err)
	}
	if est.Hierarchy == nil {
		b.Fatal("session workload did not produce a hierarchical verdict")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := hier.BatchEstimateInto(ctx, ix, opts, &est); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures raw simulation speed in cycles/op on a
// mixed workload.
func BenchmarkSimulator(b *testing.B) {
	spec, err := workloads.ByName("fftw")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		s, err := sim.New(uarch.Default(), spec.Build(0.05), 1)
		if err != nil {
			b.Fatal(err)
		}
		res := s.Run(50_000_000)
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/run")
}

// BenchmarkAblationMicrobenchTraining compares application-trained and
// microbenchmark-trained models (the paper's two training regimes).
func BenchmarkAblationMicrobenchTraining(b *testing.B) {
	s := benchSession(b)
	b.ResetTimer()
	var overlap float64
	for i := 0; i < b.N; i++ {
		res, err := s.AblationMicrobenchTraining()
		if err != nil {
			b.Fatal(err)
		}
		overlap = 0
		for _, r := range res {
			overlap += r.OverlapTop10
		}
		overlap /= float64(len(res))
	}
	b.ReportMetric(overlap, "top10-overlap")
}

// BenchmarkAblationPrefetcher measures the stride prefetcher's effect on
// streaming vs pointer-chasing workloads.
func BenchmarkAblationPrefetcher(b *testing.B) {
	s := benchSession(b)
	b.ResetTimer()
	var stream, chase float64
	for i := 0; i < b.N; i++ {
		res, err := s.AblationPrefetcher()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			switch r.Workload {
			case "remhos":
				stream = r.Speedup
			case "faiss-sift1m":
				chase = r.Speedup
			}
		}
	}
	b.ReportMetric(stream, "stream-speedup")
	b.ReportMetric(chase, "chase-speedup")
}

// BenchmarkCrossValidation runs the leave-one-out generalization check
// and reports the violation rate and median bound tightness.
func BenchmarkCrossValidation(b *testing.B) {
	s := benchSession(b)
	b.ResetTimer()
	var viol, median float64
	for i := 0; i < b.N; i++ {
		cv, err := s.CrossValidate(0.10)
		if err != nil {
			b.Fatal(err)
		}
		viol, median = cv.ViolationRate, cv.MedianRatio
	}
	b.ReportMetric(100*viol, "violations-%")
	b.ReportMetric(median, "median-ratio")
}

// BenchmarkAblationInterval sweeps the sampling interval and reports
// ranking stability at half and double the default.
func BenchmarkAblationInterval(b *testing.B) {
	s := benchSession(b)
	base := s.Cfg.IntervalCycles
	b.ResetTimer()
	var half, double float64
	for i := 0; i < b.N; i++ {
		pts, err := s.AblationInterval([]uint64{base / 2, base * 2})
		if err != nil {
			b.Fatal(err)
		}
		half, double = pts[0].MeanOverlapTop10, pts[1].MeanOverlapTop10
	}
	b.ReportMetric(half, "overlap@half")
	b.ReportMetric(double, "overlap@double")
}

// BenchmarkTraceCodec measures trace encode+decode throughput.
func BenchmarkTraceCodec(b *testing.B) {
	spec, err := workloads.ByName("numenta-nab")
	if err != nil {
		b.Fatal(err)
	}
	p := spec.Build(0.1)
	p.Reset(1)
	insts := isa.Collect(p, 40000)
	b.ResetTimer()
	var bytesPerInst float64
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := trace.Write(&buf, insts); err != nil {
			b.Fatal(err)
		}
		encoded := buf.Len() // Read drains the buffer; measure first
		got, err := trace.Read(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(insts) {
			b.Fatal("length mismatch")
		}
		bytesPerInst = float64(encoded) / float64(len(insts))
	}
	b.ReportMetric(bytesPerInst, "bytes/inst")
}

// BenchmarkCorrelations measures the confounding detector over a full
// test-workload dataset.
func BenchmarkCorrelations(b *testing.B) {
	s := benchSession(b)
	runs, err := s.TestRuns()
	if err != nil {
		b.Fatal(err)
	}
	data := runs[0].Data
	b.ResetTimer()
	var pairs int
	for i := 0; i < b.N; i++ {
		pairs = len(analysis.Correlations(data, 5, 0.95))
	}
	b.ReportMetric(float64(pairs), "pairs>=0.95")
}

// BenchmarkAblationSeeds measures ranking stability across random seeds.
func BenchmarkAblationSeeds(b *testing.B) {
	s := benchSession(b)
	b.ResetTimer()
	var stability float64
	for i := 0; i < b.N; i++ {
		res, err := s.AblationSeeds([]int64{1, 2, 3})
		if err != nil {
			b.Fatal(err)
		}
		stability = 0
		for _, r := range res {
			stability += r.MeanOverlapTop10
		}
		stability /= float64(len(res))
	}
	b.ReportMetric(stability, "seed-stability")
}
