package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"spire/internal/core"
)

// sampleSet covers the value edges the format must carry losslessly:
// NaN payloads, infinities, signed zero, denormals, negative windows.
func sampleSet() []core.Sample {
	nanPayload := math.Float64frombits(0x7ff8_dead_beef_0001)
	return []core.Sample{
		{Metric: "cycles", T: 1.5, W: 3e9, M: 0.25, Window: 0},
		{Metric: "instructions", T: 1.5, W: 4.2e9, M: 1.75, Window: 1},
		{Metric: "cycles", T: math.SmallestNonzeroFloat64, W: math.MaxFloat64, M: math.Inf(1), Window: -7},
		{Metric: "llc-misses", T: math.Copysign(0, -1), W: math.Inf(-1), M: nanPayload, Window: 1 << 40},
		{Metric: "", T: 0, W: 0, M: 0, Window: 0}, // empty metric name is legal on the wire
	}
}

// samplesEqual compares bit patterns, so NaN payloads and -0.0 count.
func samplesEqual(t *testing.T, got, want []core.Sample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Metric != w.Metric || g.Window != w.Window ||
			math.Float64bits(g.T) != math.Float64bits(w.T) ||
			math.Float64bits(g.W) != math.Float64bits(w.W) ||
			math.Float64bits(g.M) != math.Float64bits(w.M) {
			t.Fatalf("sample %d: got %+v, want %+v", i, g, w)
		}
	}
}

// withReserved overwrites an estimate request frame's reserved u64, the
// slot older encoders filled with a worker count.
func withReserved(frame []byte, v int64) []byte {
	binary.LittleEndian.PutUint64(frame[HeaderSize+8:], uint64(v))
	return frame
}

// TestEstimateRequestRoundTrip: requests round-trip, and a nonzero
// reserved slot from an older encoder is read, discarded, and written
// back as 0.
func TestEstimateRequestRoundTrip(t *testing.T) {
	cases := []struct {
		in       EstimateRequest
		reserved int64
	}{
		{},
		{EstimateRequest{Top: 10, Samples: sampleSet()}, 4},
		{EstimateRequest{Top: -1, Samples: sampleSet()[:1]}, -3},
	}
	for i, c := range cases {
		want := AppendEstimateRequest(nil, &c.in)
		if got := binary.LittleEndian.Uint64(want[HeaderSize+8:]); got != 0 {
			t.Fatalf("case %d: encoder wrote %d into the reserved slot", i, got)
		}
		b := withReserved(bytes.Clone(want), c.reserved)
		out, err := DecodeEstimateRequest(b)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if out.Top != c.in.Top {
			t.Fatalf("case %d: got top=%d, want %d", i, out.Top, c.in.Top)
		}
		samplesEqual(t, out.Samples, c.in.Samples)
		if again := AppendEstimateRequest(nil, out); !bytes.Equal(again, want) {
			t.Fatalf("case %d: re-encode differs from original encode", i)
		}
	}
}

func TestEstimateResponseRoundTrip(t *testing.T) {
	est := &core.Estimation{
		PerMetric: []core.MetricEstimate{
			{Metric: "llc-misses", MeanEstimate: 1.25e9, Samples: 12, MeanIntensity: math.NaN()},
			{Metric: "cycles", MeanEstimate: math.Inf(1), Samples: 0, MeanIntensity: -0.0},
		},
		MaxThroughput:      1.25e9,
		MeasuredThroughput: math.NaN(),
	}
	est.Coverage.ModelMetrics = 5
	est.Coverage.DataMetrics = 3
	est.Coverage.Shared = 2
	est.Coverage.DataOnly = []string{"weird-counter"}
	est.Coverage.ModelOnly = []string{"dram-reads", "dram-writes", ""}
	cases := []EstimateResponse{
		{},
		{Model: "sha256:abc", Estimation: nil},
		{Model: "sha256:abc", Estimation: &core.Estimation{}},
		{Model: strings.Repeat("m", 100), Estimation: est},
	}
	for i, in := range cases {
		b := AppendEstimateResponse(nil, &in)
		out, err := DecodeEstimateResponse(b)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if out.Model != in.Model {
			t.Fatalf("case %d: model %q, want %q", i, out.Model, in.Model)
		}
		if (out.Estimation == nil) != (in.Estimation == nil) {
			t.Fatalf("case %d: estimation presence mismatch", i)
		}
		if again := AppendEstimateResponse(nil, out); !bytes.Equal(again, b) {
			t.Fatalf("case %d: re-encode differs from original encode", i)
		}
		if in.Estimation == nil {
			continue
		}
		// Field-level check through the JSON view, which is the byte
		// contract the differential harness pins; NaNs are compared by
		// bits above via re-encode equality.
		if got, want := len(out.Estimation.PerMetric), len(in.Estimation.PerMetric); got != want {
			t.Fatalf("case %d: %d per-metric rows, want %d", i, got, want)
		}
		if !reflect.DeepEqual(out.Estimation.Coverage, in.Estimation.Coverage) {
			t.Fatalf("case %d: coverage %+v, want %+v", i, out.Estimation.Coverage, in.Estimation.Coverage)
		}
	}
}

func TestSampleBatchRoundTrip(t *testing.T) {
	in := SampleBatch{TS: 12.75, Window: 42, Samples: sampleSet()}
	b := AppendSampleBatch(nil, &in)
	out, err := DecodeSampleBatch(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if math.Float64bits(out.TS) != math.Float64bits(in.TS) || out.Window != in.Window {
		t.Fatalf("got ts=%v window=%d, want %v/%d", out.TS, out.Window, in.TS, in.Window)
	}
	samplesEqual(t, out.Samples, in.Samples)
	if again := AppendSampleBatch(nil, out); !bytes.Equal(again, b) {
		t.Fatal("re-encode differs from original encode")
	}
}

func TestFrameSize(t *testing.T) {
	frame := AppendSampleBatch(nil, &SampleBatch{TS: 1, Window: 2, Samples: sampleSet()})

	// Too short to tell: 0, nil — for every prefix shorter than the header.
	for i := 0; i < HeaderSize; i++ {
		n, err := FrameSize(frame[:i])
		if i >= 4 || err == nil {
			// Prefixes of a valid frame never error.
			if n != 0 || err != nil {
				t.Fatalf("prefix %d: got (%d, %v), want (0, nil)", i, n, err)
			}
		}
	}
	if n, err := FrameSize(frame); err != nil || n != len(frame) {
		t.Fatalf("full frame: got (%d, %v), want (%d, nil)", n, err, len(frame))
	}
	// Frame followed by more bytes still reports the first frame's size.
	if n, err := FrameSize(append(append([]byte(nil), frame...), frame...)); err != nil || n != len(frame) {
		t.Fatalf("two frames: got (%d, %v), want (%d, nil)", n, err, len(frame))
	}

	bad := append([]byte(nil), frame...)
	bad[0] = 'X'
	if _, err := FrameSize(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Bad magic is reported as soon as 4 bytes are visible, before a full
	// header arrives — a garbage stream fails fast instead of buffering.
	if _, err := FrameSize(bad[:4]); err == nil {
		t.Fatal("bad magic not reported at 4 bytes")
	}

	bad = append([]byte(nil), frame...)
	bad[4] = 99
	if _, err := FrameSize(bad); err == nil {
		t.Fatal("unknown message type accepted")
	}

	bad = append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(bad[5:9], MaxPayload+1)
	if _, err := FrameSize(bad); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestDecodeRejectsFraming(t *testing.T) {
	frame := AppendEstimateRequest(nil, &EstimateRequest{Top: 3, Samples: sampleSet()})

	// Every strict prefix fails — truncation is always an error, never a
	// partial decode.
	for i := 0; i < len(frame); i++ {
		if _, err := DecodeEstimateRequest(frame[:i]); err == nil {
			t.Fatalf("prefix %d of %d decoded", i, len(frame))
		}
	}
	// Trailing bytes fail: one body is one frame.
	if _, err := DecodeEstimateRequest(append(append([]byte(nil), frame...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Wrong message type fails.
	if _, err := DecodeSampleBatch(frame); err == nil {
		t.Fatal("estimate-request frame decoded as sample batch")
	}
	if _, err := DecodeEstimateResponse(frame); err == nil {
		t.Fatal("estimate-request frame decoded as estimate response")
	}
}

// TestDecodeHostileCounts plants counts far beyond the payload and
// checks the decoder refuses before sizing any allocation from them.
func TestDecodeHostileCounts(t *testing.T) {
	// A sample batch whose dictionary count claims 2^31 entries.
	var p []byte
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(1)) // TS
	p = binary.LittleEndian.AppendUint64(p, 1)                   // window
	p = binary.LittleEndian.AppendUint32(p, 1<<31)               // hostile dict count
	frame, start := appendHeader(nil, MsgSampleBatch)
	frame = append(frame, p...)
	frame = finishFrame(frame, start)
	if _, err := DecodeSampleBatch(frame); err == nil {
		t.Fatal("hostile dictionary count accepted")
	}

	// A sample row referencing a metric index outside the dictionary.
	sb := SampleBatch{TS: 1, Window: 1, Samples: []core.Sample{{Metric: "m", T: 1, W: 1}}}
	frame = AppendSampleBatch(nil, &sb)
	// The row's dict index lives right after TS(8)+window(8)+dictcount(4)+
	// dict entry(2+1)+samplecount(4) in the payload.
	off := HeaderSize + 8 + 8 + 4 + 3 + 4
	binary.LittleEndian.PutUint32(frame[off:], 7)
	if _, err := DecodeSampleBatch(frame); err == nil {
		t.Fatal("out-of-range dictionary index accepted")
	}
}

func TestIsBinMedia(t *testing.T) {
	yes := []string{
		ContentTypeBin,
		" application/x-spire-bin ",
		"application/x-spire-bin; charset=utf-8",
	}
	no := []string{"", "*/*", "application/json", "application/x-spire-bin2", "text/plain"}
	for _, v := range yes {
		if !IsBinMedia(v) {
			t.Errorf("IsBinMedia(%q) = false, want true", v)
		}
	}
	for _, v := range no {
		if IsBinMedia(v) {
			t.Errorf("IsBinMedia(%q) = true, want false", v)
		}
	}
}
