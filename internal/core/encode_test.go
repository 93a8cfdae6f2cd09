package core

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// trainGoldenEnsemble trains a model from the checked-in golden dataset.
func trainGoldenEnsemble(t *testing.T) *Ensemble {
	t.Helper()
	f, err := os.Open("testdata/golden_dataset.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := ReadDataset(f)
	if err != nil {
		t.Fatal(err)
	}
	ens, err := Train(data, TrainOptions{WorkUnit: "instructions", TimeUnit: "cycles"})
	if err != nil {
		t.Fatal(err)
	}
	return ens
}

// TestSaveLoadRoundTripStable is the serialization guarantee the serving
// tier's model registry depends on: Save -> LoadEnsemble -> Save must be
// byte-identical, the fingerprint must survive the round trip, and the
// reloaded model must estimate identically to the original.
func TestSaveLoadRoundTripStable(t *testing.T) {
	ens := trainGoldenEnsemble(t)

	var first bytes.Buffer
	if err := ens.Save(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEnsemble(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("reloading saved model: %v", err)
	}
	var second bytes.Buffer
	if err := loaded.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("Save -> Load -> Save is not byte-identical")
	}

	fp1, err := ens.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := loaded.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Errorf("fingerprint changed across round trip: %s vs %s", fp1, fp2)
	}
	if len(fp1) != 64 {
		t.Errorf("fingerprint %q is not a hex sha256", fp1)
	}

	if err := loaded.CheckInvariants(); err != nil {
		t.Errorf("reloaded trained model violates invariants: %v", err)
	}

	// Same estimates, bit for bit, on a reloaded model.
	f, err := os.Open("testdata/golden_dataset.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := ReadDataset(f)
	if err != nil {
		t.Fatal(err)
	}
	estA, err := ens.Estimate(data)
	if err != nil {
		t.Fatal(err)
	}
	estB, err := loaded.Estimate(data)
	if err != nil {
		t.Fatal(err)
	}
	if estA.MaxThroughput != estB.MaxThroughput || len(estA.PerMetric) != len(estB.PerMetric) {
		t.Error("reloaded model estimates differently")
	}
	for i := range estA.PerMetric {
		if estA.PerMetric[i] != estB.PerMetric[i] {
			t.Errorf("per-metric estimate %d differs: %+v vs %+v", i, estA.PerMetric[i], estB.PerMetric[i])
		}
	}
}

// TestEstimationJSONTotal: estimation marshaling must never fail, even
// on the non-finite values estimations legitimately carry, and must
// round-trip them exactly.
func TestEstimationJSONTotal(t *testing.T) {
	est := Estimation{
		PerMetric: []MetricEstimate{
			{Metric: "finite", MeanEstimate: 1.5, Samples: 3, MeanIntensity: 2.25},
			{Metric: "inf.intensity", MeanEstimate: 0.5, Samples: 1, MeanIntensity: math.Inf(1)},
			{Metric: "nan.intensity", MeanEstimate: math.Inf(1), Samples: 2, MeanIntensity: math.NaN()},
		},
		MaxThroughput:      0.5,
		MeasuredThroughput: math.NaN(),
		Coverage:           CoverageReport{ModelMetrics: 3, DataMetrics: 3, Shared: 3},
	}
	raw, err := json.Marshal(est)
	if err != nil {
		t.Fatalf("marshaling a non-finite estimation must not fail: %v", err)
	}
	if !strings.Contains(string(raw), `"+Inf"`) || !strings.Contains(string(raw), `"NaN"`) {
		t.Errorf("non-finite values not spelled out: %s", raw)
	}
	var back Estimation
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(back.MeasuredThroughput) {
		t.Error("NaN measured throughput lost in round trip")
	}
	if !math.IsInf(back.PerMetric[1].MeanIntensity, 1) || !math.IsInf(back.PerMetric[2].MeanEstimate, 1) {
		t.Error("+Inf lost in round trip")
	}
	if !math.IsNaN(back.PerMetric[2].MeanIntensity) {
		t.Error("NaN intensity lost in round trip")
	}
	if back.PerMetric[0] != est.PerMetric[0] {
		t.Errorf("finite estimate changed: %+v vs %+v", back.PerMetric[0], est.PerMetric[0])
	}
	// Finite-only documents stay plain numbers (byte-stability for the
	// serving tier's golden responses).
	finite := Estimation{PerMetric: []MetricEstimate{{Metric: "m", MeanEstimate: 1, Samples: 1, MeanIntensity: 2}}, MaxThroughput: 1, MeasuredThroughput: 3}
	raw, err = json.Marshal(finite)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"meanEstimate":"`) {
		t.Errorf("finite values must stay numeric: %s", raw)
	}

	// Rejects non-numeric strings.
	var bad Estimation
	if err := json.Unmarshal([]byte(`{"maxThroughput":"huge"}`), &bad); err == nil {
		t.Error("decoding a junk number string must fail")
	}
}

// TestEstimationJSONSections: a full estimation — hierarchy, combined
// report, strings that need escaping — round-trips through MarshalJSON
// and UnmarshalJSON, with HTML-special characters escaped as json.Marshal
// escapes them, and a non-finite float in the combined report fails the
// encoding with encoding/json's own error.
func TestEstimationJSONSections(t *testing.T) {
	wait := &WaitVerdict{Kind: "lock", Object: "m<1>", Wait: 4, Share: 0.25, Waiters: 2, Threads: []int{1, 2}}
	est := Estimation{
		PerMetric: []MetricEstimate{{Metric: "a&b\t\"\u2028\x01", MeanEstimate: 1e-7, Samples: 2, MeanIntensity: 1e21}},
		Coverage:  CoverageReport{DataOnly: []string{"d"}, ModelOnly: []string{"m"}},
		Hierarchy: &HierarchyEstimate{BindingLevel: "L1", Levels: []LevelEstimate{{Level: "L1", Metric: "x", MeanIntensity: math.Inf(-1)}},
			Surfaces: []SurfaceEstimate{{Name: "s", Param: "p", ParamValue: 2, Ceiling: 3, Binding: true}}},
		Combined: &CombinedReport{
			Partition: TimePartition{Wall: 16, OnCPU: 12, OffCPU: 4, LockWait: 4, Threads: 2},
			Waits:     []WaitVerdict{*wait},
			Knot:      true,
			Ranked:    []CombinedBottleneck{{Source: "wait", Score: 0.25, Detail: "lock", Wait: wait}, {Source: "roofline", Score: 0.1, Metric: "x"}},
		},
	}
	raw, err := json.Marshal(est)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`a\u0026b\t\"\u2028\u0001`, `m\u003c1\u003e`, `"meanEstimate":1e-7`, `"meanIntensity":1e+21`, `"-Inf"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("encoding lacks %s: %s", want, raw)
		}
	}
	var back Estimation
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(back)
	if err != nil || !bytes.Equal(again, raw) {
		t.Fatalf("round trip changed the encoding:\n%s\n%s (%v)", raw, again, err)
	}
	est.Combined.Ranked[1].Score = math.NaN()
	if _, err := json.Marshal(est); err == nil || !strings.HasSuffix(err.Error(), "json: unsupported value: NaN") {
		t.Errorf("a NaN in the combined report encoded with error %v", err)
	}
}

func TestEnsembleCheckInvariants(t *testing.T) {
	ens := trainGoldenEnsemble(t)
	if err := ens.CheckInvariants(); err != nil {
		t.Errorf("trained model must satisfy invariants: %v", err)
	}

	empty := &Ensemble{}
	if err := empty.CheckInvariants(); err == nil {
		t.Error("empty ensemble must fail invariants")
	}

	nilRoof := &Ensemble{Rooflines: map[string]*Roofline{"m": nil}}
	if err := nilRoof.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "nil") {
		t.Errorf("nil roofline must fail invariants, got %v", err)
	}

	// A decreasing left chain decodes fine but must be rejected here.
	bad := `{"format":"spire-ensemble","version":1,"model":{"rooflines":{"m":{"metric":"m","left":[{"x":1,"y":5},{"x":2,"y":1}],"tailY":1}}}}`
	loaded, err := LoadEnsemble(strings.NewReader(bad))
	if err != nil {
		t.Fatalf("loader should tolerate structurally bad chains: %v", err)
	}
	if err := loaded.CheckInvariants(); err == nil {
		t.Error("structurally bad roofline must fail CheckInvariants")
	}
}
