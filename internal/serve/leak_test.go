package serve

import (
	"bytes"
	"testing"

	"spire/internal/testutil"
)

// TestServerCloseLeaksNoGoroutines builds, uses and closes several
// servers and requires the goroutine count to return to where it
// started: a closed Server must leave nothing running behind it.
func TestServerCloseLeaksNoGoroutines(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, model := testutil.TrainModel(t, 1)
	for i := 0; i < 3; i++ {
		s := New(Config{})
		if _, err := s.Models().Load(bytes.NewReader(model), "test"); err != nil {
			t.Fatal(err)
		}
		ts := testutil.StartHTTP(t, s.Handler())
		resp := testutil.PostJSON(t, ts.URL+"/v1/estimate", EstimateRequest{Samples: testutil.Samples()})
		if body := testutil.ReadBody(t, resp); resp.StatusCode != 200 {
			t.Fatalf("server %d: status %d: %s", i, resp.StatusCode, body)
		}
		ts.Close()
		s.Close()
	}
}
