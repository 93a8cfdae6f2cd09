package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"spire/internal/core"
)

func TestResponseType(t *testing.T) {
	for accept, want := range map[string]string{
		"":                                    ContentTypeJSON,
		"*/*":                                 ContentTypeJSON,
		"application/json":                    ContentTypeJSON,
		ContentTypeBin:                        ContentTypeBin,
		"application/json, " + ContentTypeBin: ContentTypeBin,
		ContentTypeBin + ";q=0.9, */*":        ContentTypeBin,
	} {
		if got := ResponseType(accept); got != want {
			t.Errorf("ResponseType(%q) = %s, want %s", accept, got, want)
		}
	}
}

// TestReadEstimateRequestStrictness pins the JSON rules every
// /v1/estimate frontend shares: unknown fields ignored, trailing data
// rejected, read errors (the body cap) passed through unwrapped.
func TestReadEstimateRequestStrictness(t *testing.T) {
	req, err := ReadEstimateRequest(strings.NewReader(`{"samples":[{"metric":"m","t":1,"w":2,"m":3}],"workers":4,"top":1}`), "")
	if err != nil || len(req.Samples) != 1 || req.Top != 1 {
		t.Fatalf("unknown field: %+v, %v", req, err)
	}
	if _, err := ReadEstimateRequest(strings.NewReader(`{"samples":[]} {}`), ContentTypeJSON); err == nil ||
		err.Error() != "trailing data after JSON body" {
		t.Fatalf("trailing data: %v", err)
	}
	frame := AppendEstimateRequest(nil, &EstimateRequest{Samples: sampleSet()})
	capped := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(frame)), 16)
	var tooBig *http.MaxBytesError
	if _, err := ReadEstimateRequest(capped, ContentTypeBin); !errors.As(err, &tooBig) {
		t.Errorf("SPB1 over the cap: %v, want *http.MaxBytesError", err)
	}
	// A *bytes.Buffer SPB1 body decodes in place, like any other reader.
	got, err := ReadEstimateRequest(bytes.NewBuffer(frame), ContentTypeBin)
	if err != nil {
		t.Fatal(err)
	}
	samplesEqual(t, got.Samples, sampleSet())
}

// TestReadEstimateRequestStringLimit: a request string SPB1 cannot carry
// is rejected in either encoding, and one at the limit round-trips
// intact through JSON and SPB1 alike — so routing a request (which
// re-encodes it to SPB1) never changes the names it is estimated on.
func TestReadEstimateRequestStringLimit(t *testing.T) {
	atLimit := strings.Repeat("m", math.MaxUint16)
	over := atLimit + "m"
	samples := func(metric string) []core.Sample {
		return []core.Sample{{Metric: metric, T: 1, W: 2, M: 3}}
	}
	sched := func(class, obj string) []core.SchedEvent {
		return []core.SchedEvent{{Time: 1, Class: class, Obj: obj, Waker: -1}}
	}
	for name, req := range map[string]*EstimateRequest{
		"metric":      {Samples: samples(over)},
		"sched class": {Samples: samples("m"), Sched: sched(over, "")},
		"sched obj":   {Samples: samples("m"), Sched: sched("sched.block_lock", over)},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadEstimateRequest(bytes.NewReader(body), ContentTypeJSON); err == nil ||
			!strings.Contains(err.Error(), "SPB1 string limit") {
			t.Errorf("%s of %d bytes: err = %v, want the SPB1 string limit", name, len(over), err)
		}
	}

	want := &EstimateRequest{
		Samples: samples(atLimit),
		Sched:   sched(atLimit, atLimit),
	}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := ReadEstimateRequest(bytes.NewReader(body), ContentTypeJSON)
	if err != nil {
		t.Fatalf("%d-byte strings from JSON: %v", len(atLimit), err)
	}
	frame := AppendEstimateRequest(nil, fromJSON)
	fromBin, err := ReadEstimateRequest(bytes.NewReader(frame), ContentTypeBin)
	if err != nil {
		t.Fatalf("%d-byte strings from SPB1: %v", len(atLimit), err)
	}
	for _, got := range []*EstimateRequest{fromJSON, fromBin} {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-byte strings changed in the round trip", len(atLimit))
		}
	}
}

// TestEncodeEstimateRequestSize: EncodeEstimateRequest writes
// AppendEstimateRequest's bytes into a slice of exactly their length,
// strings over SPB1's limit (which the encoder truncates) included, and
// returns nil when the frame is longer than the limit.
func TestEncodeEstimateRequestSize(t *testing.T) {
	long := strings.Repeat("x", math.MaxUint16+9)
	for _, req := range []*EstimateRequest{
		{},
		{Top: 3, Samples: []core.Sample{{Metric: "a", T: 1}, {Metric: "b"}, {Metric: "a", Window: -2}}},
		{Samples: []core.Sample{{Metric: long}}, Sched: []core.SchedEvent{{Class: "c", Obj: long}, {Time: 1}}},
	} {
		want := AppendEstimateRequest(nil, req)
		got := EncodeEstimateRequest(req, len(want))
		if !bytes.Equal(got, want) || cap(got) != len(want) {
			t.Fatalf("EncodeEstimateRequest gave %d bytes (cap %d), want AppendEstimateRequest's %d", len(got), cap(got), len(want))
		}
		if got := EncodeEstimateRequest(req, len(want)-1); got != nil {
			t.Fatalf("a %d-byte frame came back under a %d-byte limit", len(got), len(want)-1)
		}
		if got := AppendEstimateRequest([]byte("head"), req); !bytes.Equal(got[4:], want) {
			t.Fatal("AppendEstimateRequest after existing bytes differs")
		}
	}
}
