package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// FuzzFitRoofline: arbitrary (T, W, M) triples must never panic the
// fitter, and any fit produced must satisfy the structural invariants and
// bound its own training samples.
func FuzzFitRoofline(f *testing.F) {
	f.Add([]byte{1, 10, 2, 1, 20, 1, 1, 5, 0})
	f.Add([]byte{})
	f.Add([]byte{255, 255, 255, 0, 0, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var samples []Sample
		for i := 0; i+2 < len(raw); i += 3 {
			samples = append(samples, Sample{
				Metric: "m",
				T:      float64(raw[i]), // zero T possible -> invalid sample
				W:      float64(raw[i+1]) * 1.5,
				M:      float64(raw[i+2]) / 3,
			})
		}
		r, err := FitRoofline("m", samples)
		if err != nil {
			if err != ErrNoSamples {
				t.Fatalf("unexpected error: %v", err)
			}
			return
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			if !s.Valid() {
				continue
			}
			p := s.Point()
			if math.IsNaN(p.X) || math.IsNaN(p.Y) {
				continue
			}
			if r.Eval(p.X) < p.Y-1e-9*(1+p.Y) {
				t.Fatalf("fit undercuts sample %v", s)
			}
		}
	})
}

// FuzzTrainParallel: arbitrary dataset shapes and worker counts must
// never panic the parallel trainer, and every worker count must produce a
// byte-identical encoded ensemble (and an identical report) to the serial
// fit.
func FuzzTrainParallel(f *testing.F) {
	f.Add([]byte{1, 10, 2, 1, 20, 1, 1, 5, 0, 3, 3, 3}, uint8(4))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{255, 255, 255, 0, 0, 0, 9, 9, 9, 1, 0, 0}, uint8(255))
	f.Fuzz(func(t *testing.T, raw []byte, workers uint8) {
		metrics := [...]string{"a", "b", "c", "d", "e"}
		var d Dataset
		for i := 0; i+2 < len(raw); i += 3 {
			d.Add(Sample{
				Metric: metrics[(i/3)%len(metrics)],
				T:      float64(raw[i]), // zero T possible -> invalid sample
				W:      float64(raw[i+1]) * 1.5,
				M:      float64(raw[i+2]) / 3,
			})
		}
		ctx := context.Background()
		serial, srep, serr := TrainContext(ctx, d, TrainOptions{Workers: 1})
		par, prep, perr := TrainContext(ctx, d, TrainOptions{Workers: int(workers)})
		if (serr == nil) != (perr == nil) {
			t.Fatalf("error mismatch: serial %v, %d workers %v", serr, workers, perr)
		}
		if serr != nil {
			if !errors.Is(perr, ErrNoSamples) {
				t.Fatalf("unexpected error: %v", perr)
			}
			return
		}
		var sb, pb bytes.Buffer
		if err := serial.Save(&sb); err != nil {
			t.Fatal(err)
		}
		if err := par.Save(&pb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
			t.Fatalf("workers=%d produced a different ensemble:\n%s\nvs serial:\n%s",
				workers, pb.Bytes(), sb.Bytes())
		}
		if srep.Fitted != prep.Fitted || len(srep.Skipped) != len(prep.Skipped) {
			t.Fatalf("reports differ: %+v vs %+v", srep, prep)
		}
	})
}

// FuzzLoadEnsemble: arbitrary JSON must never panic the loader, and a
// loaded model must evaluate without panicking.
func FuzzLoadEnsemble(f *testing.F) {
	// Seed with a genuine model.
	var d Dataset
	for i := 1.0; i <= 8; i *= 2 {
		d.Add(Sample{Metric: "m", T: 1, W: i, M: 1})
	}
	ens, err := Train(d, TrainOptions{})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ens.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("{}")
	f.Add(`{"format":"spire-ensemble","version":1,"model":{"rooflines":{"m":{"metric":"m","left":[{"X":1,"Y":1}],"tailY":"NaN"}}}}`)
	f.Add(strings.Replace(buf.String(), "1", "-1", 5))

	f.Fuzz(func(t *testing.T, payload string) {
		got, err := LoadEnsemble(strings.NewReader(payload))
		if err != nil {
			return
		}
		for _, r := range got.Rooflines {
			_ = r.Eval(0)
			_ = r.Eval(1)
			_ = r.Eval(math.Inf(1))
		}
	})
}

// fuzzMergeModel lazily trains one deterministic 4-metric ensemble shared
// by every FuzzWindowMerge execution (training per input would dominate
// the fuzz budget).
var fuzzMergeModel = struct {
	once sync.Once
	ens  *Ensemble
	err  error
}{}

func mergeModel() (*Ensemble, error) {
	fuzzMergeModel.once.Do(func() {
		rng := rand.New(rand.NewSource(9001))
		fuzzMergeModel.ens, fuzzMergeModel.err = Train(randMultiMetricDataset(rng, 4), TrainOptions{})
	})
	return fuzzMergeModel.ens, fuzzMergeModel.err
}

// FuzzWindowMerge: a sliding IncrementalIndex (add new window, evict the
// expired one) must estimate byte-identically to a fresh
// IndexWorkload+BatchEstimateInto over exactly the in-window samples, for
// arbitrary sample streams and window spans. This is the window-merge
// correctness gate behind internal/stream: Eq. 1's time-weighted mean
// over a window must not depend on how the window was assembled.
func FuzzWindowMerge(f *testing.F) {
	f.Add([]byte{0, 3, 10, 2, 0, 1, 4, 20, 1, 1, 2, 5, 9, 3, 0}, uint64(2))
	f.Add([]byte{4, 1, 1, 1, 1}, uint64(1))
	f.Add([]byte{}, uint64(7))
	f.Add([]byte{0, 0, 0, 0, 2, 1, 255, 255, 255, 0}, uint64(3))
	f.Fuzz(func(t *testing.T, raw []byte, span uint64) {
		ens, err := mergeModel()
		if err != nil {
			t.Skip("model training failed on this build")
		}
		w := int(span%8) + 1
		names := []string{"alpha", "beta", "gamma", "delta", "unmodeled.event"}

		// Decode the byte stream into windowed samples: 5 bytes per
		// sample, the fifth advancing the window counter.
		var all []Sample
		window := 1
		for i := 0; i+4 < len(raw) && len(all) < 400; i += 5 {
			window += int(raw[i+4] % 3)
			all = append(all, Sample{
				Metric: names[int(raw[i])%len(names)],
				T:      float64(raw[i+1]), // zero => invalid, must be dropped
				W:      float64(raw[i+2]) * 1.5,
				M:      float64(raw[i+3]) / 3,
				Window: window,
			})
		}

		ctx := context.Background()
		inc := NewIncrementalIndex()
		next := 0
		for cur := 1; cur <= window; cur++ {
			for next < len(all) && all[next].Window == cur {
				inc.Add(all[next])
				next++
			}
			inc.EvictBefore(cur - w + 1)

			var d Dataset
			for _, s := range all[:next] {
				if s.Window > cur-w {
					d.Add(s)
				}
			}
			want, got := new(Estimation), new(Estimation)
			werr := ens.BatchEstimateInto(ctx, IndexWorkload(d), EstimateOptions{}, want)
			gerr := ens.BatchEstimateInto(ctx, inc.Snapshot(), EstimateOptions{}, got)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("window %d span %d: error mismatch: batch=%v inc=%v", cur, w, werr, gerr)
			}
			if werr != nil {
				if !errors.Is(gerr, ErrNoSamples) {
					t.Fatalf("window %d span %d: unexpected error %v", cur, w, gerr)
				}
				continue
			}
			wb, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			gb, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wb, gb) {
				t.Fatalf("window %d span %d: streaming estimation diverges:\nbatch: %s\ninc:   %s", cur, w, wb, gb)
			}
		}
	})
}
