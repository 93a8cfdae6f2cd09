package wire

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
