package cluster_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spire/internal/cluster"
	"spire/internal/wire"
)

// fill repeats unit between head and tail until the body is as close to
// size bytes as whole units allow.
func fill(head, unit, tail string, size int) []byte {
	n := (size - len(head) - len(tail)) / len(unit)
	return []byte(head + strings.Repeat(unit, n) + tail)
}

// TestRouterHostileBodyHeapBound posts the shard heap test's hostile
// /v1/estimate bodies (TestHostileBodyHeapBound in internal/serve) through
// a router at a 1 MiB cap, in front of a shard that only drains the body,
// and holds the heap allocated per request to the shard's bounds: 4× the
// cap, 2× for one huge metric, 20× for a body of empty sample objects,
// comma-separated or adjacent (the scan sizes its slice at one object per
// three bytes at most, so "{}{}" cannot size it past what "{},{}" does).
// Best of three, so a stray allocation elsewhere in the process cannot
// fail it. A read buffer grown past 1 MiB must not be left in the pool.
func TestRouterHostileBodyHeapBound(t *testing.T) {
	const limit = 1 << 20
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{}\n"))
	}))
	defer shard.Close()
	rt, err := cluster.NewRouter(cluster.Config{
		Shards:       []cluster.Shard{{Name: "drain", URL: shard.URL}},
		MaxBodyBytes: limit,
	}, cluster.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// An SPB1 request frame whose sample count claims every remaining
	// byte, rows that all name a dictionary entry that does not exist.
	frame := wire.AppendEstimateRequest(nil, &wire.EstimateRequest{})
	frame = frame[:len(frame)-8] // drop the empty dictionary and sample counts
	frame = binary.LittleEndian.AppendUint32(frame, 0)
	rows := (limit - len(frame) - 4) / 36
	frame = binary.LittleEndian.AppendUint32(frame, uint32(rows))
	frame = append(frame, bytes.Repeat([]byte{0xff}, rows*36)...)
	binary.LittleEndian.PutUint32(frame[5:9], uint32(len(frame)-wire.HeaderSize))

	minimal := fill(`{"samples":[`, `{"metric":"m1","t":1,"w":1,"m":1},`, `{"metric":"m2","t":1,"w":1,"m":1}]}`, limit)
	cases := []struct {
		name   string
		ct     string
		body   []byte
		bound  uint64 // multiples of the cap
		length int64  // declared Content-Length, when it lies
	}{
		{"minimal samples", "application/json", minimal, 4, 0},
		// The scan refuses it as over SPB1's string limit without copying
		// the name, and the body goes upstream as it came: 1.4× the cap,
		// where a second decode through encoding/json took 3.4×.
		{"one huge metric", "application/json", fill(`{"samples":[{"metric":"`, "m", `","t":1,"w":1,"m":1}]}`, limit), 2, 0},
		{"nested arrays", "application/json",
			[]byte(`{"samples":` + strings.Repeat("[", limit/2-6) + strings.Repeat("]", limit/2-6) + `}`), 4, 0},
		{"lying SPB1 counts", wire.ContentTypeBin, frame, 4, 0},
		{"empty samples", "application/json", fill(`{"samples":[`, `{},`, `{}]}`, limit), 20, 0},
		{"adjacent empty samples", "application/json", fill(`{"samples":[`, `{}`, `{}]}`, limit), 20, 0},
		{"lying Content-Length", "application/json", minimal, 4, 64 * limit},
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
				rt.Handler().ServeHTTP(rec, req)
				best = min(best, allocatedBytes()-before)
				if rec.Code != http.StatusOK {
					t.Fatalf("status %d, want the shard's 200: %.200s", rec.Code, rec.Body.Bytes())
				}
				if b := wire.GetBuffer(); b.Cap() > limit {
					t.Fatalf("the body pool handed out a %d-byte buffer after a %d-byte body", b.Cap(), len(tc.body))
				} else {
					wire.PutBuffer(b)
				}
			}
			t.Logf("%d-byte body: %d bytes allocated (%.2f× the cap)", len(tc.body), best, float64(best)/limit)
			if best > tc.bound*limit {
				t.Errorf("routing a %d-byte body allocated %d bytes, over the %d× cap bound of %d",
					len(tc.body), best, tc.bound, tc.bound*limit)
			}
		})
	}
}
