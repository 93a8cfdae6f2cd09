package wire

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"spire/internal/core"
)

// fuzzSeeds are the frames (and near-frames) both fuzz targets start
// from; TestRegenSeedCorpus mirrors them into testdata/fuzz so the
// corpus is checked in and `go test -fuzz` starts warm.
func fuzzSeeds() [][]byte {
	est := &core.Estimation{
		PerMetric: []core.MetricEstimate{
			{Metric: "llc-misses", MeanEstimate: 1.25e9, Samples: 12, MeanIntensity: 0.5},
			{Metric: "cycles", MeanEstimate: math.Inf(1), Samples: 3, MeanIntensity: math.NaN()},
		},
		MaxThroughput:      1.25e9,
		MeasuredThroughput: 9.5e8,
	}
	est.Coverage.ModelMetrics = 4
	est.Coverage.DataMetrics = 3
	est.Coverage.Shared = 2
	est.Coverage.DataOnly = []string{"weird"}
	est.Coverage.ModelOnly = []string{"dram-reads", ""}

	seeds := [][]byte{
		AppendEstimateRequest(nil, &EstimateRequest{}),
		withReserved(AppendEstimateRequest(nil, &EstimateRequest{Top: 5, Samples: sampleSet()}), 2),
		AppendEstimateResponse(nil, &EstimateResponse{}),
		AppendEstimateResponse(nil, &EstimateResponse{Model: "sha256:abc", Estimation: est}),
		AppendSampleBatch(nil, &SampleBatch{TS: 1.5, Window: 3, Samples: sampleSet()}),
		[]byte("SPB1"),
		[]byte("not a frame at all"),
		{},
	}
	// A truncated and a trailing-garbage variant of a real frame.
	full := AppendSampleBatch(nil, &SampleBatch{TS: 2, Window: 1, Samples: sampleSet()[:2]})
	seeds = append(seeds, full[:len(full)/2], append(append([]byte(nil), full...), 0xFF))
	return seeds
}

// FuzzBinDecodeEstimate throws arbitrary bytes at every decoder: none
// may panic, and none may allocate beyond the input (the count-vs-
// remaining validation; a violation shows up as the fuzzer OOMing).
// Whatever decodes must re-encode without error.
func FuzzBinDecodeEstimate(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if _, err := FrameSize(b); err != nil {
			// FrameSize rejecting the prefix means every decoder must too.
			if _, derr := DecodeEstimateRequest(b); derr == nil {
				t.Fatal("FrameSize rejected but DecodeEstimateRequest accepted")
			}
		}
		if req, err := DecodeEstimateRequest(b); err == nil {
			AppendEstimateRequest(nil, req)
		}
		if res, err := DecodeEstimateResponse(b); err == nil {
			AppendEstimateResponse(nil, res)
		}
		if sb, err := DecodeSampleBatch(b); err == nil {
			AppendSampleBatch(nil, sb)
		}
	})
}

// FuzzBinRoundTrip pins canonical-form idempotence: for any input that
// decodes, re-encoding the decoded value and decoding that again must
// succeed and re-encode to the identical bytes. (The first re-encode may
// differ from a hand-crafted input — e.g. an unreferenced dictionary
// entry is dropped — but the canonical form is a fixed point.)
func FuzzBinRoundTrip(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if req, err := DecodeEstimateRequest(b); err == nil {
			y := AppendEstimateRequest(nil, req)
			req2, err := DecodeEstimateRequest(y)
			if err != nil {
				t.Fatalf("canonical request failed to decode: %v", err)
			}
			if again := AppendEstimateRequest(nil, req2); !bytes.Equal(again, y) {
				t.Fatal("request canonical form is not a fixed point")
			}
		}
		if res, err := DecodeEstimateResponse(b); err == nil {
			y := AppendEstimateResponse(nil, res)
			res2, err := DecodeEstimateResponse(y)
			if err != nil {
				t.Fatalf("canonical response failed to decode: %v", err)
			}
			if again := AppendEstimateResponse(nil, res2); !bytes.Equal(again, y) {
				t.Fatal("response canonical form is not a fixed point")
			}
		}
		if sb, err := DecodeSampleBatch(b); err == nil {
			y := AppendSampleBatch(nil, sb)
			sb2, err := DecodeSampleBatch(y)
			if err != nil {
				t.Fatalf("canonical batch failed to decode: %v", err)
			}
			if again := AppendSampleBatch(nil, sb2); !bytes.Equal(again, y) {
				t.Fatal("batch canonical form is not a fixed point")
			}
		}
	})
}

// TestRegenSeedCorpus rewrites the checked-in seed corpora under
// testdata/fuzz from fuzzSeeds. Run with WIRE_REGEN_CORPUS=1 after
// changing the seeds or the format; otherwise it verifies the corpus
// files exist so a stale checkout fails loudly.
func TestRegenSeedCorpus(t *testing.T) {
	regen := os.Getenv("WIRE_REGEN_CORPUS") != ""
	for _, target := range []string{"FuzzBinDecodeEstimate", "FuzzBinRoundTrip"} {
		dir := filepath.Join("testdata", "fuzz", target)
		if regen {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for i, s := range fuzzSeeds() {
			path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
			if regen {
				if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing seed corpus %s (regenerate with WIRE_REGEN_CORPUS=1): %v", path, err)
			}
			if string(got) != body {
				t.Fatalf("stale seed corpus %s (regenerate with WIRE_REGEN_CORPUS=1)", path)
			}
		}
	}
}
