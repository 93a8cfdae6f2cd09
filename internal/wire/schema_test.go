package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// filler sets every exported field reachable from a value — through
// structs, pointers and slices — to a distinct finite non-zero value, so
// a codec that drops or swaps any field fails a round-trip comparison.
type filler struct {
	t     *testing.T
	n     int
	types map[string]bool // struct types visited
}

func (f *filler) fill(v reflect.Value, path string) {
	f.n++
	switch v.Kind() {
	case reflect.Struct:
		f.types[v.Type().Name()] = true
		for i := 0; i < v.NumField(); i++ {
			if sf := v.Type().Field(i); sf.IsExported() {
				f.fill(v.Field(i), path+"."+sf.Name)
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem(), path)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", f.n))
	case reflect.Float64:
		v.SetFloat(float64(f.n) + 0.25)
	case reflect.Int:
		v.SetInt(int64(f.n))
	case reflect.Bool:
		v.SetBool(true)
	default:
		f.t.Fatalf("%s: no filler for kind %s; extend the schema test", path, v.Kind())
	}
}

func filled[T any](t *testing.T, wantTypes ...string) *T {
	t.Helper()
	v := new(T)
	f := &filler{t: t, types: map[string]bool{}}
	f.fill(reflect.ValueOf(v).Elem(), reflect.TypeOf(v).Elem().Name())
	for _, name := range wantTypes {
		if !f.types[name] {
			t.Fatalf("filler never reached %s", name)
		}
	}
	return v
}

// TestEstimateResponseSchemaReflective: every exported field of
// core.Estimation and of each type nested in it survives both the JSON
// and the SPB1 round trip of an estimate response.
func TestEstimateResponseSchemaReflective(t *testing.T) {
	res := filled[EstimateResponse](t, "Estimation", "MetricEstimate", "CoverageReport",
		"HierarchyEstimate", "LevelEstimate", "SurfaceEstimate", "CombinedReport",
		"TimePartition", "WaitVerdict", "CombinedBottleneck")

	raw, ct, err := EncodeEstimateResponse(res, "")
	if err != nil || ct != ContentTypeJSON {
		t.Fatalf("JSON encode: %v (%s)", err, ct)
	}
	var fromJSON EstimateResponse
	if err := json.Unmarshal(raw, &fromJSON); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&fromJSON, res) {
		t.Errorf("JSON round trip lost a field:\n got %+v\nwant %+v", fromJSON.Estimation, res.Estimation)
	}

	raw, ct, _ = EncodeEstimateResponse(res, ContentTypeBin)
	if ct != ContentTypeBin {
		t.Fatalf("content type %s, want SPB1", ct)
	}
	fromBin, err := DecodeEstimateResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromBin, res) {
		t.Errorf("SPB1 round trip lost a field:\n got %+v\nwant %+v", fromBin.Estimation, res.Estimation)
	}
}

// TestEstimateRequestSchemaReflective is the request-side twin: every
// exported field of a request, its samples and its scheduler events
// survives ReadEstimateRequest from JSON and from SPB1.
func TestEstimateRequestSchemaReflective(t *testing.T) {
	req := filled[EstimateRequest](t, "Sample", "SchedEvent")
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for ct, body := range map[string][]byte{
		ContentTypeJSON: raw,
		ContentTypeBin:  AppendEstimateRequest(nil, req),
	} {
		got, err := ReadEstimateRequest(bytes.NewReader(body), ct)
		if err != nil {
			t.Fatalf("%s: %v", ct, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("%s round trip lost a field:\n got %+v\nwant %+v", ct, got, req)
		}
	}
}
