package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"spire/internal/core"
	"spire/internal/testutil"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// fixtureResponse is an estimate response that reaches every section of
// the JSON encoding — flat, hierarchy and combined — with non-finite
// jsonNum values and metric names that need escaping: HTML-special
// characters, U+2028, a control character and invalid UTF-8.
func fixtureResponse() *EstimateResponse {
	wait := &core.WaitVerdict{Kind: "lock", Object: "mutex<&>", Wait: 1.5e6, Share: 0.25, Waiters: 3, Threads: []int{1, 2}}
	return &EstimateResponse{
		Model: "sha256:fixture",
		Estimation: &core.Estimation{
			PerMetric: []core.MetricEstimate{
				{Metric: "l1d.miss<&>", MeanEstimate: 1.25, Samples: 12, MeanIntensity: math.Inf(1)},
				{Metric: "bad\xffutf8\u2028", MeanEstimate: math.NaN(), Samples: 0, MeanIntensity: 3.5e-7},
				{Metric: "tab\tquote\"", MeanEstimate: 2e21, Samples: 1, MeanIntensity: math.Inf(-1)},
			},
			MaxThroughput:      1.25,
			MeasuredThroughput: math.NaN(),
			Coverage: core.CoverageReport{
				ModelMetrics: 4, DataMetrics: 5, Shared: 3,
				DataOnly:  []string{"x\x01y"},
				ModelOnly: []string{"", "dram>bw"},
			},
			Hierarchy: &core.HierarchyEstimate{
				BindingLevel:    "L2",
				BindingMetric:   "l2.miss",
				BindingEstimate: 0.75,
				BoundThroughput: math.Inf(1),
				Levels: []core.LevelEstimate{
					{Level: "L1", Metric: "l1d.miss<&>", MeanEstimate: 1.25, Samples: 12, MeanIntensity: math.Inf(1)},
					{Level: "L2", Metric: "l2.miss", MeanEstimate: 0.75, Samples: 4, MeanIntensity: 0.001},
				},
				Surfaces: []core.SurfaceEstimate{
					{Param: "l2.miss", ParamValue: math.NaN(), Ceiling: 0.5, Binding: true},
					{Name: "dram", Param: "dram.bw", ParamValue: 1e-9, Ceiling: 123456789.125},
				},
			},
			Combined: &core.CombinedReport{
				Partition: core.TimePartition{Wall: 100, OnCPU: 60, OffCPU: 40, LockWait: 25, IOWait: 10, RunnableWait: 5, Threads: 4},
				Waits:     []core.WaitVerdict{*wait, {Kind: "runnable", Wait: 5, Share: 0.05}},
				Knot:      true,
				Ranked: []core.CombinedBottleneck{
					{Source: "roofline", Score: 0.6, Detail: "l1d <bound>", Metric: "l1d.miss<&>"},
					{Source: "wait", Score: 0.25, Detail: "lock mutex", Wait: wait},
				},
			},
		},
	}
}

// TestJSONResponseFixture pins the JSON bytes of fixtureResponse to a
// checked-in file generated from the reflection-based encoder, so the
// append encoder behind core.Estimation.MarshalJSON is held to the
// bytes it replaced.
func TestJSONResponseFixture(t *testing.T) {
	raw, ct, err := EncodeEstimateResponse(fixtureResponse(), "")
	if err != nil || ct != ContentTypeJSON {
		t.Fatalf("encode: %v (%s)", err, ct)
	}
	testutil.Golden(t, filepath.Join("testdata", "estimate_response.json"), raw, *updateGolden)
}

// The reflection-era JSON encoding of core.Estimation, kept here as the
// oracle the append encoder behind Estimation.MarshalJSON is held to:
// mirror structs with the same tags, whose non-finite-capable floats are
// mirrorNums encoded by json.Marshal.

type mirrorNum float64

func (n mirrorNum) MarshalJSON() ([]byte, error) {
	f := float64(n)
	switch {
	case math.IsInf(f, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(f, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(f):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(f)
}

type metricEstimateJSON struct {
	Metric        string    `json:"metric"`
	MeanEstimate  mirrorNum `json:"meanEstimate"`
	Samples       int       `json:"samples"`
	MeanIntensity mirrorNum `json:"meanIntensity"`
}

type levelEstimateJSON struct {
	Level         string    `json:"level"`
	Metric        string    `json:"metric"`
	MeanEstimate  mirrorNum `json:"meanEstimate"`
	Samples       int       `json:"samples"`
	MeanIntensity mirrorNum `json:"meanIntensity"`
}

type surfaceEstimateJSON struct {
	Name       string    `json:"name,omitempty"`
	Param      string    `json:"param"`
	ParamValue mirrorNum `json:"paramValue"`
	Ceiling    mirrorNum `json:"ceiling"`
	Binding    bool      `json:"binding"`
}

type hierarchyEstimateJSON struct {
	BindingLevel    string                `json:"bindingLevel"`
	BindingMetric   string                `json:"bindingMetric"`
	BindingEstimate mirrorNum             `json:"bindingEstimate"`
	BoundThroughput mirrorNum             `json:"boundThroughput"`
	Levels          []levelEstimateJSON   `json:"levels"`
	Surfaces        []surfaceEstimateJSON `json:"surfaces,omitempty"`
}

type estimationJSON struct {
	PerMetric          []metricEstimateJSON   `json:"perMetric"`
	MaxThroughput      mirrorNum              `json:"maxThroughput"`
	MeasuredThroughput mirrorNum              `json:"measuredThroughput"`
	Coverage           core.CoverageReport    `json:"coverage"`
	Hierarchy          *hierarchyEstimateJSON `json:"hierarchy,omitempty"`
	Combined           *core.CombinedReport   `json:"combined,omitempty"`
}

// mirrorSlice converts a slice element-wise, keeping nil nil.
func mirrorSlice[T, M any](in []T, conv func(*T) M) []M {
	if in == nil {
		return nil
	}
	out := make([]M, len(in))
	for i := range in {
		out[i] = conv(&in[i])
	}
	return out
}

func mirrorOf(est *core.Estimation) estimationJSON {
	m := estimationJSON{
		PerMetric: mirrorSlice(est.PerMetric, func(p *core.MetricEstimate) metricEstimateJSON {
			return metricEstimateJSON{p.Metric, mirrorNum(p.MeanEstimate), p.Samples, mirrorNum(p.MeanIntensity)}
		}),
		MaxThroughput:      mirrorNum(est.MaxThroughput),
		MeasuredThroughput: mirrorNum(est.MeasuredThroughput),
		Coverage:           est.Coverage,
		Combined:           est.Combined,
	}
	if h := est.Hierarchy; h != nil {
		m.Hierarchy = &hierarchyEstimateJSON{
			BindingLevel:    h.BindingLevel,
			BindingMetric:   h.BindingMetric,
			BindingEstimate: mirrorNum(h.BindingEstimate),
			BoundThroughput: mirrorNum(h.BoundThroughput),
			Levels: mirrorSlice(h.Levels, func(l *core.LevelEstimate) levelEstimateJSON {
				return levelEstimateJSON{l.Level, l.Metric, mirrorNum(l.MeanEstimate), l.Samples, mirrorNum(l.MeanIntensity)}
			}),
			Surfaces: mirrorSlice(h.Surfaces, func(s *core.SurfaceEstimate) surfaceEstimateJSON {
				return surfaceEstimateJSON{s.Name, s.Param, mirrorNum(s.ParamValue), mirrorNum(s.Ceiling), s.Binding}
			}),
		}
	}
	return m
}

// encodeAgrees checks MarshalJSON, and json.Marshal around it, against
// the mirror encoding: the same bytes, or the same error.
func encodeAgrees(t *testing.T, est *core.Estimation) {
	t.Helper()
	want, werr := json.Marshal(mirrorOf(est))
	got, gerr := est.MarshalJSON()
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("MarshalJSON error %v, encoding/json error %v", gerr, werr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("MarshalJSON diverges from encoding/json:\n got %s\nwant %s", got, want)
	}
	if full, err := json.Marshal(est); werr == nil && (err != nil || !bytes.Equal(full, want)) {
		t.Fatalf("json.Marshal(estimation) = %s, %v; want %s", full, err, want)
	}
}

// legacyRead is the JSON request read every /v1/estimate frontend ran
// before the hand scanner: a streaming Decoder into a method-free
// EstimateRequest, then the trailing-data and string-limit checks.
func legacyRead(body []byte) (*estimateRequest, error) {
	type EstimateRequest estimateRequest
	req := new(EstimateRequest)
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(req); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("trailing data after JSON body")
	}
	out := (*estimateRequest)(req)
	return out, CheckEstimateRequest(out)
}

// decodeAgrees checks json.Unmarshal into an EstimateRequest (the hand
// scanner, or its fallback) against a reflection decode into its
// method-free twin — the same request or the same error text — and
// DecodeEstimateBody against legacyRead. The decoded request must not
// share memory with body.
func decodeAgrees(t *testing.T, body []byte) {
	t.Helper()
	type EstimateRequest estimateRequest
	var want EstimateRequest
	werr := json.Unmarshal(body, &want)
	var got estimateRequest
	body = bytes.Clone(body)
	gerr := json.Unmarshal(body, &got)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("UnmarshalJSON error %v, reflection error %v", gerr, werr)
	}
	fromBody, berr := DecodeEstimateBody(body, ContentTypeJSON)
	legacy, lerr := legacyRead(body)
	if fmt.Sprint(berr) != fmt.Sprint(lerr) {
		t.Fatalf("DecodeEstimateBody error %v, legacy read error %v", berr, lerr)
	}
	for i := range body {
		body[i] = 'X'
	}
	if gerr == nil && !sameRequest(&got, (*estimateRequest)(&want)) {
		t.Fatalf("UnmarshalJSON decoded\n %+v\nreflection decoded\n %+v", got, want)
	}
	if berr == nil && !sameRequest(fromBody, legacy) {
		t.Fatalf("DecodeEstimateBody decoded\n %+v\nlegacy read decoded\n %+v", fromBody, legacy)
	}
}

// sameRequest reports whether a and b are deeply equal with every float
// compared by its bits, so -0 and +0 differ: a float's bits feed
// engine.WorkloadKey, and so placement, and the SPB1 frame.
func sameRequest(a, b *EstimateRequest) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i, p := range a.Samples {
		q := b.Samples[i]
		if !same(p.T, q.T) || !same(p.W, q.W) || !same(p.M, q.M) {
			return false
		}
	}
	for i, ev := range a.Sched {
		if !same(ev.Time, b.Sched[i].Time) {
			return false
		}
	}
	return true
}

// jsonCodecSeeds are the canonical request body and one body per
// fallback trigger of the hand scanner, plus malformed input.
func jsonCodecSeeds() [][]byte {
	canonical, err := json.Marshal(&EstimateRequest{
		Samples: []core.Sample{
			{Metric: "l1d.miss", T: 50000, W: 120000, M: 4567, Window: 1},
			{Metric: "é<&> ", T: 1.5e-9, W: -0.0, M: 1e300, Window: -3},
			{Metric: "l1d.miss", T: 1, W: 2, M: 3},
		},
		Top: 2,
		Sched: []core.SchedEvent{
			{Time: 10, Class: "sched.block_lock", Thread: 1, Hart: 2, Obj: "mutex", Waker: -1, Window: 1},
			{Time: 12.5, Class: "sched.switch_in", Thread: 1, Waker: 3},
		},
	})
	if err != nil {
		panic(err)
	}
	seeds := [][]byte{canonical}
	for _, s := range []string{
		// canonical shapes with whitespace, exponents and empty arrays
		" {\n\t\"samples\" : [ {\"metric\":\"m\" , \"t\":1E+2,\"w\":-0,\"m\":0.5e-3} ] ,\"top\":0}\r\n",
		`{"samples":[],"sched":[]}`,
		`{}`,
		// escapes
		`{"samples":[{"metric":"a\"b","t":1,"w":2,"m":3}]}`,
		`{"samples":[{"metric":"é","t":1,"w":2,"m":3}]}`,
		`{"samples":[{"metric":"a\\","t":1,"w":2,"m":3}]}`,
		// other key case
		`{"Samples":[{"metric":"m","t":1,"w":2,"m":3}]}`,
		`{"samples":[{"Metric":"m","T":1,"w":2,"m":3}]}`,
		// duplicate and unknown keys
		`{"samples":[],"samples":[{"metric":"m","t":1,"w":2,"m":3}]}`,
		`{"samples":[{"metric":"m","t":1,"t":2,"w":2,"m":3}]}`,
		`{"samples":[{"metric":"a","t":1}],"samples":[{"w":2}]}`, // reflection merges into the first element
		`{"sched":[{"class":"c","time":1}],"sched":[{"thread":2}],"top":1,"top":2}`,
		`{"samples":[{"metric":"m","t":1,"w":2,"m":3}],"workers":4,"top":1}`,
		`{"samples":[{"metric":"m","x":[1,{"y":2}],"t":1,"w":2,"m":3}]}`,
		`{"sched":[{"time":1,"class":"c","thread":1,"waker":-1,"extra":true}]}`,
		// null
		`null`,
		`{"samples":null}`,
		`{"samples":[{"metric":null,"t":1,"w":2,"m":3}]}`,
		`{"top":null}`,
		// fractional and overflowing numbers
		`{"top":1.5}`,
		`{"samples":[{"metric":"m","t":1,"w":2,"m":3,"window":2.0}]}`,
		`{"top":99999999999999999999}`,
		`{"samples":[{"metric":"m","t":1e400,"w":2,"m":3}]}`,
		// invalid UTF-8
		"{\"samples\":[{\"metric\":\"\xff\",\"t\":1,\"w\":2,\"m\":3}]}",
		// wrong types
		`{"samples":{}}`,
		`{"samples":[1]}`,
		`{"top":"1"}`,
		`[]`,
		`"x"`,
		// malformed input
		`{"samples":[`,
		`{"samples":[]} {}`,
		`{"samples":[{"metric":"m","t":01}]}`,
		``,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// fuzzEstimation builds an estimation from fuzz inputs: shape's bits pick
// nil, empty or populated slices and the optional sections, the names
// and floats fill every string and float field.
func fuzzEstimation(s1, s2 string, f1, f2, f3 float64, shape uint16) *core.Estimation {
	bit := func(i uint) bool { return shape&(1<<i) != 0 }
	strs := func(i uint) []string {
		switch {
		case !bit(i):
			return nil
		case !bit(i + 1):
			return []string{}
		}
		return []string{s1, s2}
	}
	est := &core.Estimation{MaxThroughput: f1, MeasuredThroughput: f2}
	if bit(0) {
		est.PerMetric = []core.MetricEstimate{}
		if bit(1) {
			est.PerMetric = append(est.PerMetric,
				core.MetricEstimate{Metric: s1, MeanEstimate: f1, Samples: 3, MeanIntensity: f3},
				core.MetricEstimate{Metric: s2, MeanEstimate: f3, Samples: -1, MeanIntensity: f2})
		}
	}
	est.Coverage = core.CoverageReport{ModelMetrics: 2, DataMetrics: 1, DataOnly: strs(2), ModelOnly: strs(3)}
	if bit(4) {
		h := &core.HierarchyEstimate{BindingLevel: s2, BindingMetric: s1, BindingEstimate: f3, BoundThroughput: f1}
		if bit(5) {
			h.Levels = []core.LevelEstimate{}
			if bit(1) {
				h.Levels = append(h.Levels, core.LevelEstimate{Level: s1, Metric: s2, MeanEstimate: f2, Samples: 7, MeanIntensity: f3})
			}
		}
		if bit(6) {
			h.Surfaces = []core.SurfaceEstimate{{Param: s1, ParamValue: f1, Ceiling: f2, Binding: bit(9)}, {Name: s2, Param: s2, ParamValue: f3}}
		}
		est.Hierarchy = h
	}
	if bit(7) {
		wv := core.WaitVerdict{Kind: s1, Object: s2, Wait: f1, Share: f2, Waiters: 2}
		if bit(8) {
			wv.Threads = []int{3, -1}
		}
		c := &core.CombinedReport{
			Partition: core.TimePartition{Wall: f1, OnCPU: f2, OffCPU: f3, LockWait: 1, IOWait: 2, RunnableWait: 0.5, Threads: 4},
			Knot:      bit(9),
		}
		if bit(10) {
			c.Waits = []core.WaitVerdict{}
			if bit(11) {
				c.Waits = append(c.Waits, wv)
			}
		}
		if bit(12) {
			c.Ranked = []core.CombinedBottleneck{}
			if bit(13) {
				c.Ranked = append(c.Ranked,
					core.CombinedBottleneck{Source: "roofline", Score: f3, Detail: s2, Metric: s1},
					core.CombinedBottleneck{Source: "wait", Score: f1, Detail: s1, Wait: &wv})
			}
		}
		est.Combined = c
	}
	return est
}

// FuzzJSONCodecAgree is the oracle for the JSON codec. The serving
// benchmark builds its reference responses through the same
// MarshalJSON and UnmarshalJSON, so only a comparison with encoding/json
// itself can catch a codec bug: any body decodes as reflection decodes
// it (or fails with the same error text), and any estimation encodes
// to the mirror encoding's bytes (or fails as it does).
func FuzzJSONCodecAgree(f *testing.F) {
	for _, body := range jsonCodecSeeds() {
		f.Add(body, "l1d.miss", "x<&> \x01\xff", 1.5, math.Inf(1), 3.5e-7, uint16(0xffff))
	}
	for i, v := range []float64{math.NaN(), math.Inf(-1), 2e21, 0} {
		f.Add([]byte(`{}`), "", "tab\t\"q\"", v, -1e-7, 123456789.125, uint16(0x5a5a>>i))
		f.Add([]byte(`{}`), "m ", "", 1.0, 2.0, v, uint16(0xa5a5>>i))
	}
	f.Add([]byte(`{}`), "l1d.miss", "é ~\x7f", -1.5, 2.5e-8, math.Copysign(0, -1), uint16(0x8001))
	f.Add([]byte(`{}`), "", "m", 9007199254740993.0, -1e22, 1e23, uint16(0x7fff))
	f.Fuzz(func(t *testing.T, body []byte, s1, s2 string, f1, f2, f3 float64, shape uint16) {
		decodeAgrees(t, body)
		encodeAgrees(t, fuzzEstimation(s1, s2, f1, f2, f3, shape))
		marshalScans(t, s1, s2, f1, f2, f3, shape)
	})
}

// plainJSON reports whether json.Marshal writes s unescaped and SPB1
// carries it: valid UTF-8 within the string limit, free of control bytes,
// '"', '\\', the HTML-special '<', '>', '&', and U+2028/U+2029.
func plainJSON(s string) bool {
	return len(s) <= math.MaxUint16 && utf8.ValidString(s) &&
		!strings.ContainsFunc(s, func(r rune) bool { return r < 0x20 || strings.ContainsRune("\"\\<>&\u2028\u2029", r) })
}

// marshalScans holds the direct scan to the shape it is for: json.Marshal
// of a request built from fuzz inputs — every field set, fractional,
// exponent and negative floats, scheduler events — is taken by
// ScanEstimateBody and decoded to the request itself, bit for bit,
// whenever the floats are finite and the strings plain (plainJSON), into
// slices of exactly their length. A wrong refusal would still decode,
// through reflection, and a wrong count only wastes memory, so no result
// shows either; only this check does.
func marshalScans(t *testing.T, s1, s2 string, f1, f2, f3 float64, shape uint16) {
	t.Helper()
	req := &EstimateRequest{
		Samples: []core.Sample{
			{Metric: s1, T: f1, W: f2, M: f3, Window: int(int16(shape))},
			{Metric: s2, T: f3, W: f1, M: -f2},
			{Metric: s1, T: -f3, W: f1 / 7, M: f2 * 3, Window: -1},
		},
		Top: int(shape >> 12),
		Sched: []core.SchedEvent{
			{Time: f2, Class: s1, Thread: int(shape), Hart: int(int8(shape)), Obj: s2, Waker: -1, Window: math.MaxInt},
			{Time: -f1, Class: s2},
		},
	}
	body, err := json.Marshal(req)
	if err != nil || !plainJSON(s1) || !plainJSON(s2) {
		return
	}
	got, err := ScanEstimateBody(body)
	if err != nil {
		t.Fatalf("ScanEstimateBody refused json.Marshal's %q: %v", body, err)
	}
	if !sameRequest(got, req) {
		t.Fatalf("ScanEstimateBody decoded %q to\n %+v\nnot\n %+v", body, got, req)
	}
	if cap(got.Samples) != len(got.Samples) || cap(got.Sched) != len(got.Sched) {
		t.Fatalf("ScanEstimateBody sized the slices of %q at %d and %d for %d samples and %d events",
			body, cap(got.Samples), cap(got.Sched), len(got.Samples), len(got.Sched))
	}
}

// TestScanTakesMarshalOutput runs marshalScans over fixed names, some
// with the bytes the slice count looks at, and over floats on both sides
// of the scan's integer fast path.
func TestScanTakesMarshalOutput(t *testing.T) {
	for _, name := range []string{"l1d.miss", "", "é ~\x7f", "a b", "}],{[", "y_Y:,"} {
		for _, v := range []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -2.5e-3, 1.5e-9, 1e20, 1e21, 1e22, 1e23, -1e300,
			5e-324, math.MaxFloat64, 999999999999999, 1 << 53, 9007199254740993, 12345678901234567, 123456789.125} {
			marshalScans(t, name, "m", v, -v, v/3, 0xa5a5)
		}
	}
}

// TestJSONCodecEdgeCases runs the fuzz target's encode check over fixed
// estimations that reach every section with nil, empty and populated
// slices, non-finite and boundary values in every float field, and a
// failing combined report (the decode seeds run as the fuzz target's
// corpus), and decodes into a receiver that already holds a request.
func TestJSONCodecEdgeCases(t *testing.T) {
	encodeAgrees(t, fixtureResponse().Estimation)
	encodeAgrees(t, &core.Estimation{})
	for _, shape := range []uint16{0xffff, 0x5555, 0xaaaa, 0x1693, 0x3fff} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.0, 1e-7, 1e-6, 9.99e-7, 1.5e20, 1e21, -1e21, 5e-324} {
			encodeAgrees(t, fuzzEstimation("a<b>&c", "bad\xff \x1f", v, 0.5, 7, shape))
			encodeAgrees(t, fuzzEstimation("", "x", 1, v, v, shape))
		}
	}
	// A receiver that already holds a request is merged into, as
	// reflection merges: absent keys keep their values, array elements are
	// decoded over the old ones.
	type EstimateRequest estimateRequest
	fill := func() estimateRequest {
		return estimateRequest{Samples: []core.Sample{{Metric: "a", T: 1}}, Top: 3}
	}
	got, want := fill(), EstimateRequest(fill())
	body := []byte(`{"samples":[{"w":2}]}`)
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if !sameRequest(&got, (*estimateRequest)(&want)) {
		t.Fatalf("decoding into a filled request gave %+v, reflection %+v", got, want)
	}
}

// TestBufferPoolCap: a buffer over the pool cap is dropped on release,
// not kept for reuse.
func TestBufferPoolCap(t *testing.T) {
	big := GetBuffer()
	big.Grow(maxPooledBuffer + 1)
	PutBuffer(big)
	if b := GetBuffer(); b == big || b.Cap() > maxPooledBuffer {
		t.Fatalf("the pool handed back a %d-byte buffer, over its %d-byte cap", b.Cap(), maxPooledBuffer)
	}
	small := GetBuffer()
	small.Grow(4096)
	PutBuffer(small)
	if b := GetBuffer(); b.Len() != 0 {
		t.Fatalf("a pooled buffer came back holding %d bytes", b.Len())
	}
}

// scanAgrees checks the direct scan against encoding/json: a body
// ScanEstimateBody decodes is valid JSON, DecodeEstimateBody decodes it to
// the same request, bit for bit, and the request shares no memory with
// body; a body it refuses as over SPB1's string limit, not as outside the
// canonical shape, DecodeEstimateBody refuses too.
func scanAgrees(t *testing.T, body []byte) {
	t.Helper()
	body = bytes.Clone(body)
	got, err := ScanEstimateBody(body)
	if err == ErrNotCanonical {
		return
	}
	if !json.Valid(body) {
		t.Fatalf("ScanEstimateBody took invalid JSON %q", body)
	}
	want, werr := DecodeEstimateBody(body, ContentTypeJSON)
	if err != nil {
		if werr == nil {
			t.Fatalf("ScanEstimateBody refused %q (%v), DecodeEstimateBody decoded it", body, err)
		}
		return
	}
	if werr != nil {
		t.Fatalf("ScanEstimateBody accepted %q, DecodeEstimateBody rejected it: %v", body, werr)
	}
	for i := range body {
		body[i] = 'X'
	}
	if !sameRequest(got, want) {
		t.Fatalf("ScanEstimateBody decoded\n %+v\nDecodeEstimateBody decoded\n %+v", got, want)
	}
}

// numberLiterals are literals in JSON's number grammar around the scan's
// integer fast paths (15 digits for a float, 18 for an int), float64's
// exact-integer edge 2^53, the int64 range, exponents and zeros.
var numberLiterals = []string{
	"0", "-0", "-0.0", "0.0", "1", "-1", "7",
	"123456789012345", "-999999999999999", "1234567890123456", "-9999999999999999",
	"9007199254740992", "9007199254740993", "12345678901234567", "99999999999999999",
	"999999999999999999", "-999999999999999999", "1000000000000000000",
	"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
	"18446744073709551616", "123456789012345678901234567890",
	"1e22", "1e23", "1E+22", "1.5", "-2.5e-3", "5e-324", "1.7976931348623157e308", "1e309", "-1e-400",
}

// scanSeeds add, to the codec seeds, one body per JSON grammar rule the
// direct scan checks itself, each just outside the grammar, the edge
// cases just inside it, numberLiterals as floats and as ints, and
// adjacent objects, which the slice sizing must not trust.
func scanSeeds() [][]byte {
	seeds := jsonCodecSeeds()
	for _, num := range []string{"01", "-01", "+1", "1.", ".5", "-", "1e", "1e+", "00", "-.5", "1.e5", "0x1", "-0", "1E5", "0.5e-3", "1E+05", "-0.0"} {
		seeds = append(seeds, []byte(`{"samples":[{"metric":"m","t":`+num+`,"w":2,"m":3}]}`))
	}
	for _, num := range numberLiterals {
		seeds = append(seeds,
			[]byte(`{"samples":[{"metric":"m","t":1,"w":`+num+`,"m":3,"window":`+num+`}],"top":`+num+`}`),
			[]byte(`{"sched":[{"time":`+num+`,"class":"c","hart":`+num+`}]}`))
	}
	for _, metric := range []string{"a\x01b", "a\tb", "\x1f", "a\x7fb"} {
		seeds = append(seeds, []byte(`{"samples":[{"metric":"m","t":1,"w":2,"m":3},{"metric":"`+metric+`","t":1,"w":2,"m":3}]}`))
	}
	return append(seeds,
		[]byte(`{"samples":[{"metric":"m","t":1,"w":2,"m":3,"window":1.0}]}`),
		[]byte(`{"top":01}`),
		[]byte("{\"sched\":[{\"time\":1,\"class\":\"c\\u0001\",\"obj\":\"\x01\"}]}"),
		[]byte(`{"samples":[{}{}{}]}`),
	)
}

// TestScanNumbersMatchStrconv holds the scan's number reading to strconv:
// each of numberLiterals, as a float, is ParseFloat's result bit for bit
// (so -0 is not 0) and, as an int, ParseInt's; a literal strconv refuses
// (out of range, or fractional for an int) the scan refuses.
func TestScanNumbersMatchStrconv(t *testing.T) {
	for _, lit := range numberLiterals {
		want, ferr := strconv.ParseFloat(lit, 64)
		req, err := ScanEstimateBody([]byte(`{"samples":[{"metric":"m","t":` + lit + `,"w":2,"m":3}]}`))
		if (err == nil) != (ferr == nil) || err == nil && math.Float64bits(req.Samples[0].T) != math.Float64bits(want) {
			t.Errorf("float %s: scan gave %+v, %v; strconv gave %v, %v", lit, req, err, want, ferr)
		}
		n, ierr := strconv.ParseInt(lit, 10, strconv.IntSize)
		req, err = ScanEstimateBody([]byte(`{"samples":[{"metric":"m","t":1,"w":2,"m":3,"window":` + lit + `}]}`))
		if (err == nil) != (ierr == nil) || err == nil && req.Samples[0].Window != int(n) {
			t.Errorf("int %s: scan gave %+v, %v; strconv gave %d, %v", lit, req, err, n, ierr)
		}
	}
}

// TestScanEstimateBodyStringLimit: a canonical body with a metric, class
// or obj over SPB1's string limit is refused as over the limit — the
// router then routes it as it came, without decoding it again — and
// DecodeEstimateBody refuses it too. A string at the limit is decoded. A
// body outside the canonical shape is left to DecodeEstimateBody, even
// with a long string: a later duplicate key may replace it.
func TestScanEstimateBodyStringLimit(t *testing.T) {
	atLimit := strings.Repeat("m", math.MaxUint16)
	long := atLimit + "m"
	for _, tc := range []struct {
		body string
		over bool  // refused as over the limit
		want error // otherwise
	}{
		{body: `{"samples":[{"metric":"` + atLimit + `","t":1,"w":2,"m":3}]}`},
		{body: `{"samples":[{"metric":"` + long + `","t":1,"w":2,"m":3}]}`, over: true},
		{body: `{"sched":[{"time":1,"class":"` + long + `"}],"top":1}`, over: true},
		{body: `{"sched":[{"time":1,"class":"c","obj":"` + long + `"}]}`, over: true},
		{body: `{"samples":[{"metric":"` + long + `","metric":"m","t":1}]}`, want: ErrNotCanonical},
		{body: `{"samples":[{"metric":"` + long + `","t":1,"x":2}]}`, want: ErrNotCanonical},
		{body: `{"samples":[{"metric":"` + long + "\x01" + `","t":1}]}`, want: ErrNotCanonical},
	} {
		req, err := ScanEstimateBody([]byte(tc.body))
		_, derr := DecodeEstimateBody([]byte(tc.body), ContentTypeJSON)
		switch {
		case tc.over && (err == nil || err == ErrNotCanonical || derr == nil):
			t.Errorf("%.40s…: scan %v, DecodeEstimateBody %v; want both to refuse it as over the limit", tc.body, err, derr)
		case !tc.over && err != tc.want:
			t.Errorf("%.40s…: scan %v, want %v", tc.body, err, tc.want)
		case !tc.over && err == nil && req.Samples[0].Metric != atLimit:
			t.Errorf("%.40s…: scan decoded a %d-byte metric, want %d bytes", tc.body, len(req.Samples[0].Metric), len(atLimit))
		}
	}
}

// FuzzScanEstimateJSON holds the direct scan to encoding/json: whatever it
// accepts must be valid JSON that DecodeEstimateBody decodes to the same
// request (scanAgrees). The seeds include each number and string rule the
// scan checks in place of encoding/json's validity scan.
func FuzzScanEstimateJSON(f *testing.F) {
	for _, body := range scanSeeds() {
		f.Add(body)
	}
	f.Fuzz(scanAgrees)
}

// TestScanEstimateJSONGrammar pins which side of the grammar each seed
// number and control-byte metric falls on.
func TestScanEstimateJSONGrammar(t *testing.T) {
	body := func(num, metric string) []byte {
		return []byte(`{"samples":[{"metric":"` + metric + `","t":` + num + `,"w":2,"m":3}]}`)
	}
	for num, want := range map[string]bool{
		"01": false, "-01": false, "+1": false, "1.": false, ".5": false, "-": false,
		"1e": false, "1e+": false, "00": false, "-.5": false, "1.e5": false,
		"-0": true, "1E5": true, "0.5e-3": true, "1E+05": true, "-0.0": true, "50000": true,
	} {
		if _, err := ScanEstimateBody(body(num, "m")); (err == nil) != want {
			t.Errorf("number %q: scan error %v, want accepted %v", num, err, want)
		}
	}
	for metric, want := range map[string]bool{"a\x01b": false, "a\tb": false, "\x1f": false, "a\x7fb": true, "é": true} {
		if _, err := ScanEstimateBody(body("1", metric)); (err == nil) != want {
			t.Errorf("metric %q: scan error %v, want accepted %v", metric, err, want)
		}
	}
	if _, err := ScanEstimateBody([]byte(`{"samples":[{"metric":"m","t":1,"w":2,"m":3,"window":1.0}]}`)); err == nil {
		t.Error(`scan accepted "window":1.0`)
	}
	if _, err := ScanEstimateBody([]byte(`{"samples":[{"metric":"` + strings.Repeat("m", math.MaxUint16+1) + `","t":1,"w":2,"m":3}]}`)); err == nil {
		t.Error("scan accepted a metric over the SPB1 string limit")
	}
}
