package wire

import (
	"bytes"
	"reflect"
	"testing"

	"spire/internal/core"
)

func schedFixture() []core.SchedEvent {
	return []core.SchedEvent{
		{Time: 0, Class: "sched.wakeup", Thread: 0, Waker: -1},
		{Time: 10, Class: "sched.switch_in", Thread: 0, Hart: 1, Waker: -1, Window: 1},
		{Time: 40, Class: "sched.block_lock", Thread: 0, Hart: 1, Obj: "mu", Waker: 2, Window: 1},
		{Time: 90, Class: "sched.unblock_io", Thread: 3, Obj: "nvme0", Waker: -1, Window: 2},
	}
}

func combinedFixture() *core.CombinedReport {
	return &core.CombinedReport{
		Partition: core.TimePartition{
			Wall: 400, OnCPU: 250, OffCPU: 150,
			LockWait: 100, IOWait: 30, RunnableWait: 20, Threads: 4,
		},
		Waits: []core.WaitVerdict{
			{Kind: "lock", Object: "mu", Wait: 100, Share: 0.25, Waiters: 3},
			{Kind: "knot", Object: "threads 0,1,2", Wait: 80, Share: 0.2, Waiters: 3, Threads: []int{0, 1, 2}},
		},
		Knot: true,
		Ranked: []core.CombinedBottleneck{
			{Source: "wait", Score: 0.25, Detail: "lock mu: 3 threads blocked",
				Wait: &core.WaitVerdict{Kind: "lock", Object: "mu", Wait: 100, Share: 0.25, Waiters: 3}},
			{Source: "roofline", Score: 0.2, Detail: "memory bound", Metric: "longest_lat_cache.miss"},
		},
	}
}

func TestEstimateRequestSchedRoundTrip(t *testing.T) {
	req := &EstimateRequest{
		Top:     3,
		Samples: []core.Sample{{Metric: "m", T: 100, W: 50, M: 3, Window: 1}},
		Sched:   schedFixture(),
	}
	got, err := DecodeEstimateRequest(withReserved(AppendEstimateRequest(nil, req), 2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, req)
	}
}

func TestEstimateRequestZeroSchedBytesUnchanged(t *testing.T) {
	// The freeze: a request without scheduler events must encode
	// byte-identically to one that never had a Sched field.
	with := &EstimateRequest{Top: 3, Samples: []core.Sample{{Metric: "m", T: 1, W: 1, M: 1}}}
	frame := AppendEstimateRequest(nil, with)
	withEmpty := *with
	withEmpty.Sched = []core.SchedEvent{}
	if !bytes.Equal(frame, AppendEstimateRequest(nil, &withEmpty)) {
		t.Fatal("empty sched slice changed the frame bytes")
	}
	got, err := DecodeEstimateRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sched != nil {
		t.Fatalf("decoded sched = %+v, want nil", got.Sched)
	}
}

func TestSampleBatchSchedRoundTrip(t *testing.T) {
	sb := &SampleBatch{
		TS:      2.5,
		Window:  2,
		Samples: []core.Sample{{Metric: "m", T: 10, W: 5, M: 1, Window: 2}},
		Sched:   schedFixture(),
	}
	got, err := DecodeSampleBatch(AppendSampleBatch(nil, sb))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sb) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, sb)
	}
	// Sched-only batch (no counter samples) also round-trips.
	only := &SampleBatch{TS: 1, Window: 1, Sched: schedFixture()}
	got, err = DecodeSampleBatch(AppendSampleBatch(nil, only))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, only) {
		t.Fatalf("sched-only round trip: got %+v", got)
	}
}

func TestEstimateResponseCombinedRoundTrip(t *testing.T) {
	est := &core.Estimation{
		PerMetric:     []core.MetricEstimate{{Metric: "m", MeanEstimate: 2, Samples: 4, MeanIntensity: 1}},
		MaxThroughput: 2,
		Combined:      combinedFixture(),
	}
	res := &EstimateResponse{Model: "v1", Estimation: est}
	got, err := DecodeEstimateResponse(AppendEstimateResponse(nil, res))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got.Estimation.Combined, res.Estimation.Combined)
	}
}

func TestEstimateResponseCombinedWithHierarchy(t *testing.T) {
	// Both trailing sections present: hierarchy first, combined after.
	est := &core.Estimation{
		MaxThroughput: 1,
		Hierarchy: &core.HierarchyEstimate{
			BindingLevel: "L2", BindingMetric: "m", BindingEstimate: 3, BoundThroughput: 1,
			Levels: []core.LevelEstimate{{Level: "L2", Metric: "m", MeanEstimate: 3, Samples: 2, MeanIntensity: 1}},
		},
		Combined: combinedFixture(),
	}
	res := &EstimateResponse{Model: "v1", Estimation: est}
	got, err := DecodeEstimateResponse(AppendEstimateResponse(nil, res))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("hierarchy+combined round trip mismatch")
	}
}

func TestEstimateResponseNoCombinedBytesUnchanged(t *testing.T) {
	est := &core.Estimation{
		PerMetric:     []core.MetricEstimate{{Metric: "m", MeanEstimate: 2, Samples: 4}},
		MaxThroughput: 2,
	}
	frame := AppendEstimateResponse(nil, &EstimateResponse{Model: "v1", Estimation: est})
	got, err := DecodeEstimateResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimation.Combined != nil {
		t.Fatal("combined materialized from a flat frame")
	}
}

func TestDecodeHostileSchedSection(t *testing.T) {
	req := &EstimateRequest{Samples: []core.Sample{{Metric: "m", T: 1, W: 1, M: 1}}, Sched: schedFixture()}
	frame := AppendEstimateRequest(nil, req)

	// Truncation anywhere in the sched section must error, never panic.
	for n := len(frame) - 1; n >= HeaderSize; n-- {
		cut := make([]byte, n)
		copy(cut, frame[:n])
		// Patch the length so the header matches the truncated body.
		cut[5] = byte(n - HeaderSize)
		cut[6], cut[7], cut[8] = byte((n-HeaderSize)>>8), byte((n-HeaderSize)>>16), byte((n-HeaderSize)>>24)
		if _, err := DecodeEstimateRequest(cut); err == nil && n < len(frame) {
			// Some prefixes are self-consistent frames (e.g. cutting the
			// whole sched section back to the flat encoding) — those must
			// decode to fewer events, not garbage.
			got, err2 := DecodeEstimateRequest(cut)
			if err2 != nil {
				t.Fatal(err2)
			}
			if len(got.Sched) >= len(req.Sched) && n < len(frame) {
				t.Fatalf("truncated frame %d decoded all events", n)
			}
		}
	}

	// Unknown section tag fails.
	bad := make([]byte, len(frame))
	copy(bad, frame)
	// The sched tag byte sits right after the samples; find it by
	// re-encoding without sched.
	flat := AppendEstimateRequest(nil, &EstimateRequest{Samples: req.Samples})
	bad[len(flat)] = 99
	if _, err := DecodeEstimateRequest(bad); err == nil {
		t.Fatal("unknown section tag decoded")
	}

	// Hostile count: claim 2^31 events in a tiny section.
	hostile := append([]byte(nil), flat...)
	hostile = append(hostile[:len(hostile)], byte(secSched), 0xff, 0xff, 0xff, 0x7f)
	hostile[5] = byte(len(hostile) - HeaderSize)
	if _, err := DecodeEstimateRequest(hostile); err == nil {
		t.Fatal("hostile sched count decoded")
	}
}

func TestDecodeDuplicateCombinedSection(t *testing.T) {
	est := &core.Estimation{MaxThroughput: 1, Combined: combinedFixture()}
	frame := AppendEstimateResponse(nil, &EstimateResponse{Model: "v", Estimation: est})
	flatLen := len(AppendEstimateResponse(nil, &EstimateResponse{Model: "v", Estimation: &core.Estimation{MaxThroughput: 1}}))
	section := frame[flatLen:]
	dup := append([]byte(nil), frame...)
	dup = append(dup, section...)
	newLen := len(dup) - HeaderSize
	dup[5], dup[6], dup[7], dup[8] = byte(newLen), byte(newLen>>8), byte(newLen>>16), byte(newLen>>24)
	if _, err := DecodeEstimateResponse(dup); err == nil {
		t.Fatal("duplicate combined section decoded")
	}
}
