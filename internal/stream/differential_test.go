package stream

// Differential suite: every window the streaming path emits must be
// byte-identical (as JSON) to a from-scratch batch estimation —
// IndexWorkload + BatchEstimateInto — over exactly the in-window samples.
// Any divergence means the incremental index, the eviction logic or the
// window bookkeeping changed the arithmetic of paper Eq. 1.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"spire/internal/core"
	"spire/internal/ingest"
)

var diffNames = []string{"alpha", "beta", "gamma", "delta", "unmodeled.event"}

// trainStreamEnsemble trains a small random 4-metric model, retrying
// shapes the fitter rejects.
func trainStreamEnsemble(t testing.TB, rng *rand.Rand) *core.Ensemble {
	t.Helper()
	for {
		var d core.Dataset
		for m := 0; m < 4; m++ {
			n := 4 + rng.Intn(24)
			for i := 0; i < n; i++ {
				d.Add(core.Sample{
					Metric: diffNames[m],
					T:      float64(1 + rng.Intn(8)),
					W:      float64(rng.Intn(40)),
					M:      float64(rng.Intn(10)),
				})
			}
		}
		ens, err := core.Train(d, core.TrainOptions{})
		if err == nil {
			return ens
		}
	}
}

// randIntervalSamples builds one interval's samples: random metrics,
// occasional invalid rows (dropped identically by both paths), and
// occasional M = 0 rows (I = +Inf).
func randIntervalSamples(rng *rand.Rand, window int) []core.Sample {
	n := rng.Intn(8)
	out := make([]core.Sample, 0, n)
	for i := 0; i < n; i++ {
		s := core.Sample{
			Metric: diffNames[rng.Intn(len(diffNames))],
			T:      float64(1 + rng.Intn(6)),
			W:      float64(rng.Intn(30)),
			M:      float64(rng.Intn(6)),
			Window: window,
		}
		if rng.Intn(14) == 0 {
			s.T = -s.T
		}
		out = append(out, s)
	}
	return out
}

// marshal renders v for byte comparison.
func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDifferentialStreamingMatchesBatch slides >= 1000 randomized
// windows (40 streams x 30 intervals, random spans, worker counts and
// sample shapes) and requires the streaming estimation to equal the
// batch one byte for byte.
func TestDifferentialStreamingMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(8042))
	ctx := context.Background()
	windows := 0
	for si := 0; si < 40; si++ {
		ens := trainStreamEnsemble(t, rng)
		span := 1 + rng.Intn(10)
		rng.Intn(4) // once the worker count; still drawn so later draws are unchanged
		cfg := Config{
			WindowIntervals: span,
			Model:           StaticModel(ens, fmt.Sprintf("model-%d", si)),
		}
		w := NewWindower(span)
		est := NewEstimator(cfg, NewInstruments(nil))
		var history []ingest.Interval
		for i := 1; i <= 30; i++ {
			iv := ingest.Interval{TS: float64(i), Window: i, Samples: randIntervalSamples(rng, i)}
			history = append(history, iv)
			got := est.Estimate(ctx, w.Push(iv))
			windows++

			if got.Seq != uint64(i) || got.EndTS != iv.TS {
				t.Fatalf("stream %d window %d: bookkeeping off: %+v", si, i, got)
			}
			var d core.Dataset
			for _, p := range history {
				if p.Window > i-span {
					d.Add(p.Samples...)
				}
			}
			want := new(core.Estimation)
			werr := ens.BatchEstimateInto(ctx, core.IndexWorkload(d), core.EstimateOptions{}, want)
			if werr != nil {
				if got.Estimation != nil || got.Error != "no sample matches a modeled metric" {
					t.Fatalf("stream %d window %d: batch says %v, stream says %+v", si, i, werr, got)
				}
				continue
			}
			if got.Error != "" || got.Estimation == nil {
				t.Fatalf("stream %d window %d: stream errored (%q) where batch succeeded", si, i, got.Error)
			}
			if gb, wb := marshal(t, got.Estimation), marshal(t, want); gb != wb {
				t.Fatalf("stream %d window %d (span %d): estimation diverges:\nstream: %s\nbatch:  %s",
					si, i, span, gb, wb)
			}
		}
	}
	if windows < 1000 {
		t.Fatalf("only %d windows exercised, need >= 1000", windows)
	}
}

// csvStream renders intervals as perf-stat CSV rows over the modeled
// event names, with plausible fixed-counter magnitudes.
func csvStream(rng *rand.Rand, intervals int) string {
	var b []byte
	for i := 1; i <= intervals; i++ {
		ts := float64(i)
		b = fmt.Appendf(b, "%.9f,%d,,cycles,1000000000,100.00,,\n", ts, 3_000_000+rng.Intn(1_000_000))
		b = fmt.Appendf(b, "%.9f,%d,,instructions,1000000000,100.00,,\n", ts, 4_000_000+rng.Intn(1_000_000))
		for _, ev := range diffNames[:4] {
			if rng.Intn(4) == 0 {
				continue // events drop out of intervals now and then
			}
			b = fmt.Appendf(b, "%.9f,%d,,%s,250000000,25.00,,\n", ts, rng.Intn(100_000), ev)
		}
	}
	return string(b)
}

// TestDifferentialPipelineCSV drives the whole synchronous path — CSV
// bytes through incremental ingestion, windowing and estimation — under
// random chunking, and checks every emitted Result (bookkeeping fields
// included) against a batch reference computed from the same parse.
func TestDifferentialPipelineCSV(t *testing.T) {
	rng := rand.New(rand.NewSource(9099))
	ctx := context.Background()
	for si := 0; si < 6; si++ {
		ens := trainStreamEnsemble(t, rng)
		span := 1 + rng.Intn(6)
		input := csvStream(rng, 40)

		// Reference: parse once, slide by hand, batch-estimate.
		refIn := ingest.NewIncremental(ingest.Options{})
		ivs, err := refIn.Feed([]byte(input))
		if err != nil {
			t.Fatal(err)
		}
		tail, err := refIn.Close()
		if err != nil {
			t.Fatal(err)
		}
		ivs = append(ivs, tail...)

		rng.Intn(3) // once the worker count; still drawn so later draws are unchanged
		p := NewPipeline(Config{
			WindowIntervals: span,
			Model:           StaticModel(ens, "csv-model"),
		})
		var got []Result
		rest := []byte(input)
		for len(rest) > 0 {
			n := 1 + rng.Intn(97)
			if n > len(rest) {
				n = len(rest)
			}
			rs, err := p.Feed(ctx, rest[:n])
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, rs...)
			rest = rest[n:]
		}
		rs, err := p.Close(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rs...)

		if len(got) != len(ivs) {
			t.Fatalf("stream %d: %d results for %d intervals", si, len(got), len(ivs))
		}
		for i, res := range got {
			iv := ivs[i]
			lo := iv.Window - span
			var d core.Dataset
			start := iv.TS
			count := 0
			for _, pv := range ivs[:i+1] {
				if pv.Window > lo {
					if count == 0 {
						start = pv.TS
					}
					count++
					d.Add(pv.Samples...)
				}
			}
			if res.Seq != uint64(i+1) || res.EndTS != iv.TS || res.StartTS != start ||
				res.Intervals != count || res.Model != "csv-model" {
				t.Fatalf("stream %d result %d: bookkeeping off: %+v", si, i, res)
			}
			want := new(core.Estimation)
			werr := ens.BatchEstimateInto(ctx, core.IndexWorkload(d), core.EstimateOptions{}, want)
			if werr != nil {
				if res.Error != "no sample matches a modeled metric" {
					t.Fatalf("stream %d result %d: batch says %v, stream says %+v", si, i, werr, res)
				}
				continue
			}
			if gb, wb := marshal(t, res.Estimation), marshal(t, want); gb != wb {
				t.Fatalf("stream %d result %d: estimation diverges:\nstream: %s\nbatch:  %s", si, i, gb, wb)
			}
		}
	}
}
