package cluster_test

// The differential byte-parity suite: a routed cluster must be
// observationally indistinguishable from one `spire serve` process.
// For 1000+ randomized request pairs — JSON and SPB1 bodies, JSON and
// SPB1 Accepts, valid, degenerate, and malformed payloads — the routed
// response (status, content type, body bytes) must equal the
// single-node response exactly. This is the cluster tier's contract:
// placement, failover, and re-encoding on the shard hop may change
// WHERE an answer is computed, never WHAT the client reads.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"spire/internal/core"
	"spire/internal/serve"
	"spire/internal/testutil"
	"spire/internal/wire"
)

// parityReq is one generated request, sent identically to both targets.
type parityReq struct {
	kind        string // generator bucket, for failure triage
	body        []byte
	contentType string
	accept      string
}

// parityMetrics is the name pool: the two modeled metrics, the two
// throughput counters, and one the model has never seen.
var parityMetrics = []string{"m1", "m2", "cycles", "instructions", "bogus.metric"}

// randSamples draws a workload of 1..24 samples, occasionally invalid
// (t <= 0) so quarantine behaviour is part of the contract under test.
func randSamples(r *rand.Rand) []core.Sample {
	n := 1 + r.Intn(24)
	samples := make([]core.Sample, n)
	for i := range samples {
		t := 1 + r.Float64()*99
		if r.Intn(12) == 0 {
			t = -t // invalid: quarantined by the engine on both targets
		}
		samples[i] = core.Sample{
			Metric: parityMetrics[r.Intn(len(parityMetrics))],
			T:      t,
			W:      r.Float64() * 16,
			M:      r.Float64() * 20,
			Window: r.Intn(4),
		}
	}
	return samples
}

// legacyEstimateRequest is the estimate body older clients send: it
// still carries the "workers" field, which the service now ignores.
type legacyEstimateRequest struct {
	Samples []core.Sample `json:"samples"`
	Top     int           `json:"top,omitempty"`
	Workers int           `json:"workers,omitempty"`
}

// withReservedSlot overwrites an SPB1 estimate request's reserved u64,
// the slot older encoders filled with a worker count.
func withReservedSlot(frame []byte, v uint64) []byte {
	binary.LittleEndian.PutUint64(frame[wire.HeaderSize+8:], v)
	return frame
}

// genParityRequests produces a deterministic mixed population from one
// seed: mostly valid bodies across both wire formats, plus the
// degenerate and malformed tails where error-path parity lives.
func genParityRequests(seed int64, n int) []parityReq {
	r := rand.New(rand.NewSource(seed))
	reqs := make([]parityReq, 0, n)
	for i := 0; i < n; i++ {
		accept := ""
		if r.Intn(3) == 0 {
			accept = wire.ContentTypeBin
		}
		switch pick := r.Intn(10); {
		case pick < 5: // JSON body, some with the legacy "workers" field
			body, err := json.Marshal(legacyEstimateRequest{
				Samples: randSamples(r), Top: r.Intn(4), Workers: r.Intn(3),
			})
			if err != nil {
				panic(err)
			}
			reqs = append(reqs, parityReq{kind: "json", body: body, contentType: "application/json", accept: accept})
		case pick < 8: // SPB1 body, some with a nonzero reserved slot
			samples, top := randSamples(r), r.Intn(4)
			body := withReservedSlot(wire.AppendEstimateRequest(nil, &wire.EstimateRequest{
				Samples: samples, Top: top,
			}), uint64(r.Intn(3)))
			reqs = append(reqs, parityReq{kind: "bin", body: body, contentType: wire.ContentTypeBin, accept: accept})
		case pick == 8: // degenerate but well-formed
			switch r.Intn(3) {
			case 0:
				reqs = append(reqs, parityReq{kind: "empty-samples", body: []byte(`{"samples":[]}`), contentType: "application/json", accept: accept})
			case 1:
				reqs = append(reqs, parityReq{kind: "empty-object", body: []byte(`{}`), contentType: "application/json", accept: accept})
			default:
				// Unknown fields are tolerated by serve; the router must
				// not be stricter.
				body, _ := json.Marshal(map[string]any{
					"samples": randSamples(r), "unknown_field": true,
				})
				reqs = append(reqs, parityReq{kind: "unknown-field", body: body, contentType: "application/json", accept: accept})
			}
		default: // malformed
			switch r.Intn(4) {
			case 0:
				reqs = append(reqs, parityReq{kind: "bad-json", body: []byte(`{"samples": [`), contentType: "application/json", accept: accept})
			case 1:
				reqs = append(reqs, parityReq{kind: "trailing", body: []byte(`{"samples":[]} extra`), contentType: "application/json", accept: accept})
			case 2:
				full := wire.AppendEstimateRequest(nil, &wire.EstimateRequest{Samples: randSamples(r)})
				reqs = append(reqs, parityReq{kind: "bin-truncated", body: full[:len(full)-1-r.Intn(8)], contentType: wire.ContentTypeBin, accept: accept})
			default:
				reqs = append(reqs, parityReq{kind: "empty-body", body: nil, contentType: "application/json", accept: accept})
			}
		}
	}
	return reqs
}

// doEstimate posts one parity request and returns the response triple
// that must match across targets.
func doEstimate(t testing.TB, base string, pr parityReq) (int, string, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/estimate", bytes.NewReader(pr.body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", pr.contentType)
	if pr.accept != "" {
		req.Header.Set("Accept", pr.accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", base, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("X-Spire-Model"), body
}

// TestClusterByteParity is the headline differential: 1200 randomized
// request pairs against a 4-shard cluster and a single node sharing one
// model, compared byte for byte.
func TestClusterByteParity(t *testing.T) {
	_, model := testutil.TrainModel(t, 1)
	single := startSingle(t, serve.Config{}, model)
	tc := startCluster(t, clusterOpts{shards: 4})
	id := tc.pushModel(t, model)
	tc.waitConverged(t, id, 5_000_000_000) // 5s

	const pairs = 1200
	reqs := genParityRequests(0xC0FFEE, pairs)

	kinds := map[string]int{}
	for _, pr := range reqs {
		kinds[pr.kind]++
	}
	t.Logf("parity population: %v", kinds)
	// The generator must actually cover the error paths, or "parity"
	// silently shrinks to the happy path.
	for _, want := range []string{"json", "bin", "empty-samples", "bad-json", "trailing", "bin-truncated"} {
		if kinds[want] == 0 {
			t.Fatalf("generator produced no %q requests", want)
		}
	}

	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	var mu sync.Mutex
	mismatches := 0
	for i, pr := range reqs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, pr parityReq) {
			defer wg.Done()
			defer func() { <-sem }()
			sStatus, sCT, sModel, sBody := doEstimate(t, single.URL, pr)
			cStatus, cCT, cModel, cBody := doEstimate(t, tc.url, pr)
			if sStatus != cStatus || sCT != cCT || sModel != cModel || !bytes.Equal(sBody, cBody) {
				mu.Lock()
				mismatches++
				if mismatches <= 5 {
					t.Errorf("pair %d (%s): single=(%d, %s, model=%q, %d bytes) cluster=(%d, %s, model=%q, %d bytes)\nsingle body: %.200s\ncluster body: %.200s",
						i, pr.kind, sStatus, sCT, sModel, len(sBody), cStatus, cCT, cModel, len(cBody), sBody, cBody)
				}
				mu.Unlock()
			}
		}(i, pr)
	}
	wg.Wait()
	if mismatches > 0 {
		t.Fatalf("%d of %d pairs diverged from single-node responses", mismatches, pairs)
	}
	// Routing books must balance over the whole run.
	exposition := testutil.ScrapeMetrics(t, tc.url)
	testutil.AssertRouteBooksBalance(t, exposition, "/v1/estimate")
	if reqsTotal := testutil.SumMetric(t, exposition, "spire_route_requests_total", `route="/v1/estimate"`); reqsTotal != pairs {
		t.Errorf("router accounted %v estimate requests, want %d", reqsTotal, pairs)
	}
}

// TestClusterParityIngest extends the differential to the stateless
// parse route, JSON and CSV alike.
func TestClusterParityIngest(t *testing.T) {
	_, model := testutil.TrainModel(t, 1)
	single := startSingle(t, serve.Config{}, model)
	tc := startCluster(t, clusterOpts{shards: 3})
	// Shards without a model report unready (serve's /readyz contract),
	// so even the stateless route needs the cluster converged first.
	tc.waitConverged(t, tc.pushModel(t, model), 5_000_000_000)

	csv := func(rows int) []byte {
		var b bytes.Buffer
		for i := 1; i <= rows; i++ {
			fmt.Fprintf(&b, "%d.0,100,,cycles,1,100.00,,\n%d.0,50,,instructions,1,100.00,,\n", i, i)
			fmt.Fprintf(&b, "%d.0,10,,m1,1,25.00,,\n", i)
		}
		return b.Bytes()
	}
	cases := []struct {
		name, ct string
		body     []byte
	}{
		{"csv-small", "text/csv", csv(2)},
		{"csv-large", "text/csv", csv(40)},
		{"csv-garbled", "text/csv", []byte("not,perf\ngarbage\n")},
		{"empty", "text/csv", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sCode, _, sBody := testutil.HTTPPost(t, single.URL+"/v1/ingest", c.ct, c.body)
			cCode, _, cBody := testutil.HTTPPost(t, tc.url+"/v1/ingest", c.ct, c.body)
			if sCode != cCode || !bytes.Equal(sBody, cBody) {
				t.Fatalf("ingest diverged: single=(%d, %.200s) cluster=(%d, %.200s)", sCode, sBody, cCode, cBody)
			}
		})
	}
	testutil.AssertRouteBooksBalance(t, testutil.ScrapeMetrics(t, tc.url), "/v1/ingest")
}
