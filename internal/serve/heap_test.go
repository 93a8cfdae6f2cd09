package serve

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"strings"
	"testing"

	"spire/internal/testutil"
	"spire/internal/wire"
)

// allocatedBytes is the process's cumulative heap allocation.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// fill repeats unit between head and tail until the body is as close to
// size bytes as whole units allow.
func fill(head, unit, tail string, size int) []byte {
	n := (size - len(head) - len(tail)) / len(unit)
	return []byte(head + strings.Repeat(unit, n) + tail)
}

// TestHostileBodyHeapBound posts hostile /v1/estimate bodies at the body
// cap and holds the heap allocated while serving each one to a stated
// bound, measured with runtime/metrics around the handler alone (best of
// three, so a stray allocation elsewhere in the process cannot fail it).
// A Content-Length far over the cap must not size the read buffer. The
// bound is 4× the cap, except for a body of empty sample objects:
// each 3-byte "{}," decodes to a 48-byte core.Sample, so the decoded
// request alone is 16× the body, and that case is held to 20×.
func TestHostileBodyHeapBound(t *testing.T) {
	const limit = 1 << 20
	s, _ := newTestServer(t, Config{MaxBodyBytes: limit})
	_, model := testutil.TrainModel(t, 1)
	if _, err := s.Models().Load(bytes.NewReader(model), "test"); err != nil {
		t.Fatal(err)
	}

	// An SPB1 request frame whose sample count claims every remaining
	// byte, rows that all name a dictionary entry that does not exist.
	frame := wire.AppendEstimateRequest(nil, &wire.EstimateRequest{})
	frame = frame[:len(frame)-8] // drop the empty dictionary and sample counts
	frame = binary.LittleEndian.AppendUint32(frame, 0)
	rows := (limit - len(frame) - 4) / 36
	frame = binary.LittleEndian.AppendUint32(frame, uint32(rows))
	frame = append(frame, bytes.Repeat([]byte{0xff}, rows*36)...)
	binary.LittleEndian.PutUint32(frame[5:9], uint32(len(frame)-wire.HeaderSize))

	cases := []struct {
		name   string
		ct     string
		body   []byte
		status int
		bound  uint64 // multiples of the cap
		length int64  // declared Content-Length, when it lies
	}{
		{"minimal samples", "application/json",
			fill(`{"samples":[`, `{"metric":"m1","t":1,"w":1,"m":1},`, `{"metric":"m2","t":1,"w":1,"m":1}]}`, limit), 200, 4, 0},
		{"one huge metric", "application/json",
			fill(`{"samples":[{"metric":"`, "m", `","t":1,"w":1,"m":1}]}`, limit), 400, 4, 0},
		{"nested arrays", "application/json",
			[]byte(`{"samples":` + strings.Repeat("[", limit/2-6) + strings.Repeat("]", limit/2-6) + `}`), 400, 4, 0},
		{"lying SPB1 counts", wire.ContentTypeBin, frame, 400, 4, 0},
		{"empty samples", "application/json", fill(`{"samples":[`, `{},`, `{}]}`, limit), 422, 20, 0},
		{"lying Content-Length", "application/json",
			fill(`{"samples":[`, `{"metric":"m1","t":1,"w":1,"m":1},`, `{"metric":"m2","t":1,"w":1,"m":1}]}`, limit), 200, 4, 64 * limit},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if len(tc.body) > limit || len(tc.body) < limit-64 {
				t.Fatalf("body is %d bytes, want just under the %d-byte cap", len(tc.body), limit)
			}
			best := ^uint64(0)
			for i := 0; i < 3; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(tc.body))
				req.Header.Set("Content-Type", tc.ct)
				if tc.length > 0 {
					req.ContentLength = tc.length
				}
				rec := httptest.NewRecorder()
				before := allocatedBytes()
				s.Handler().ServeHTTP(rec, req)
				best = min(best, allocatedBytes()-before)
				if rec.Code != tc.status {
					t.Fatalf("status %d, want %d: %.200s", rec.Code, tc.status, rec.Body.Bytes())
				}
			}
			t.Logf("%d-byte body: %d bytes allocated (%.2f× the cap)", len(tc.body), best, float64(best)/limit)
			if best > tc.bound*limit {
				t.Errorf("serving a %d-byte body allocated %d bytes, over the %d× cap bound of %d",
					len(tc.body), best, tc.bound, tc.bound*limit)
			}
		})
	}
}

// TestOverCapBodyIs413: the estimate body is read whole before it is
// decoded, so a body over the cap is a 413 even when its first bytes are
// already malformed, as the router has always answered it.
func TestOverCapBodyIs413(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBodyBytes: 1024})
	_, model := testutil.TrainModel(t, 1)
	if _, err := s.Models().Load(bytes.NewReader(model), "test"); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader("{nope"+strings.Repeat(" ", 2048)))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if want := "{\"error\":\"request body exceeds 1024 bytes\"}\n"; rec.Code != http.StatusRequestEntityTooLarge || rec.Body.String() != want {
		t.Fatalf("got %d %q, want 413 %q", rec.Code, rec.Body.String(), want)
	}
}
