package cluster_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"spire/internal/serve"
	"spire/internal/testutil"
	"spire/internal/wire"
)

// TestLegacyWorkersCompat: what older clients send to ask for estimation
// workers — a "workers" JSON field, or a nonzero SPB1 reserved slot —
// changes nothing. Sent straight to a shard and through the router, each
// such request gets a 200 whose bytes equal the same request without it.
func TestLegacyWorkersCompat(t *testing.T) {
	_, model := testutil.TrainModel(t, 1)
	tc := startCluster(t, clusterOpts{shards: 2})
	tc.waitConverged(t, tc.pushModel(t, model), 5*time.Second)

	samples := testutil.Samples()
	plainJSON, err := json.Marshal(serve.EstimateRequest{Samples: samples, Top: 1})
	if err != nil {
		t.Fatal(err)
	}
	legacyJSON, err := json.Marshal(legacyEstimateRequest{Samples: samples, Top: 1, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(legacyJSON, []byte(`"workers":3`)) {
		t.Fatalf("legacy body lacks the workers field: %s", legacyJSON)
	}
	plainBin := wire.AppendEstimateRequest(nil, &wire.EstimateRequest{Samples: samples, Top: 1})
	legacyBin := withReservedSlot(bytes.Clone(plainBin), 3)
	if bytes.Equal(plainBin, legacyBin) {
		t.Fatal("legacy frame does not differ from the plain one")
	}

	cases := []struct {
		name          string
		plain, legacy parityReq
	}{
		{"json",
			parityReq{body: plainJSON, contentType: "application/json"},
			parityReq{body: legacyJSON, contentType: "application/json"}},
		{"json-accept-bin",
			parityReq{body: plainJSON, contentType: "application/json", accept: wire.ContentTypeBin},
			parityReq{body: legacyJSON, contentType: "application/json", accept: wire.ContentTypeBin}},
		{"bin",
			parityReq{body: plainBin, contentType: wire.ContentTypeBin, accept: wire.ContentTypeBin},
			parityReq{body: legacyBin, contentType: wire.ContentTypeBin, accept: wire.ContentTypeBin}},
		{"bin-accept-json",
			parityReq{body: plainBin, contentType: wire.ContentTypeBin},
			parityReq{body: legacyBin, contentType: wire.ContentTypeBin}},
	}
	for _, target := range []struct{ name, url string }{
		{"shard", tc.shards[0].url()},
		{"route", tc.url},
	} {
		for _, c := range cases {
			status, ct, _, got := doEstimate(t, target.url, c.legacy)
			wantStatus, wantCT, _, want := doEstimate(t, target.url, c.plain)
			if status != 200 || wantStatus != 200 {
				t.Fatalf("%s/%s: status legacy=%d plain=%d: %.200s", target.name, c.name, status, wantStatus, got)
			}
			if ct != wantCT || !bytes.Equal(got, want) {
				t.Errorf("%s/%s: legacy request answered differently\nlegacy (%s): %.200q\nplain  (%s): %.200q",
					target.name, c.name, ct, got, wantCT, want)
			}
		}
	}
}
