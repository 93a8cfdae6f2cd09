// Package wire owns the /v1/estimate schema in both of its encodings —
// JSON and SPB1 — and the HTTP format negotiation between them. Serve
// and the `spire route` router read request bodies with ReadBody (serve
// through ReadEstimateRequest) and decode them with DecodeEstimateBody;
// serve encodes responses with EncodeEstimateResponse. A field or a
// strictness rule is defined here once.
//
// The JSON codec sits behind the encoding/json interfaces, so every caller
// of encoding/json runs it: EstimateRequest.UnmarshalJSON (json.go) scans
// the canonical request by hand, core.Estimation.MarshalJSON is one append
// encoder. Bodies are read and responses built in pooled buffers.
//
// SPB1 is spire's compact length-prefixed binary format for the
// estimation API and the stream feed. It exists for the hot serving
// loop: a JSON estimate request re-encodes every float in decimal and
// repeats every metric name per sample, while SPB1 ships raw IEEE-754
// bits (NaN payloads preserved) against a per-message metric
// dictionary, decoding with two small allocations and no reflection.
//
// Framing, all integers little-endian:
//
//	offset  size  field
//	0       4     magic "SPB1"
//	4       1     message type (MsgEstimateRequest | MsgEstimateResponse | MsgSampleBatch)
//	5       4     payload length (uint32, <= MaxPayload)
//	9       n     payload
//
// Payload primitives: strings are uint16-length-prefixed UTF-8 bytes;
// floats are math.Float64bits little-endian; sample rows reference a
// uint32-indexed metric dictionary written in first-appearance order.
//
// An estimate request payload is:
//
//	size  field
//	8     top (int64; 0 returns every metric)
//	8     reserved (uint64; encoders write 0, decoders read and discard it)
//	n     metric dictionary and sample rows
//	...   optional trailing sections (secSched)
//
// The reserved slot once carried a requested estimation worker count.
// Estimation is serial now, so the slot is kept only to leave the frame
// layout unchanged: frames from older encoders with any value there
// decode exactly like frames with 0.
// Every count is validated against the bytes remaining before any
// allocation is sized from it, so adversarial lengths cannot make the
// decoder over-allocate: allocations are bounded by the input size.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"spire/internal/core"
)

// ContentTypeBin is the HTTP content type negotiating SPB1 bodies on
// /v1/estimate and /v1/stream. JSON remains the default; a request opts
// in per message (Content-Type) and per response (Accept).
const ContentTypeBin = "application/x-spire-bin"

// ContentTypeJSON is the default /v1/estimate encoding, and the only one
// error responses use.
const ContentTypeJSON = "application/json"

// IsBinMedia reports whether one HTTP media-type value (one Accept
// element or a Content-Type) selects SPB1. Parameters after ';' are
// ignored. Anything else — including */* — is not binary: the format is
// strictly opt-in.
func IsBinMedia(v string) bool {
	if i := strings.IndexByte(v, ';'); i >= 0 {
		v = v[:i]
	}
	return strings.TrimSpace(v) == ContentTypeBin
}

// ResponseType negotiates an estimate response's Content-Type from the
// request's Accept header: ContentTypeBin when any element selects SPB1,
// ContentTypeJSON otherwise (absent, */*, anything else).
func ResponseType(accept string) string {
	for _, part := range strings.Split(accept, ",") {
		if IsBinMedia(part) {
			return ContentTypeBin
		}
	}
	return ContentTypeJSON
}

// ReadEstimateRequest reads one /v1/estimate request body whole into a
// pooled buffer and decodes it with DecodeEstimateBody. Read errors,
// http.MaxBytesError included, come back unwrapped. The buffer is not sized
// from Content-Length: pooled buffers keep their capacity from request to
// request.
func ReadEstimateRequest(body io.Reader, contentType string) (*EstimateRequest, error) {
	buf := getBuffer()
	defer putBuffer(buf)
	if _, err := ReadBody(buf, body, -1); err != nil {
		return nil, err
	}
	return DecodeEstimateBody(buf.Bytes(), contentType)
}

// ReadBody reads body whole into buf and returns buf's bytes. declared is
// the sender's Content-Length, negative when unknown. buf grows to at most
// 64 KiB before a byte arrives and then to at most 4× what has arrived, never
// past declared: a sender can announce the body cap and then stall.
func ReadBody(buf *bytes.Buffer, body io.Reader, declared int64) ([]byte, error) {
	b := buf.Bytes()
	for {
		if len(b) == cap(b) {
			n := max(4*len(b), 64<<10)
			if declared > int64(len(b)) {
				n = min(n, int(declared))
			}
			b = append(make([]byte, 0, n+bytes.MinRead), b...) // one allocation per step
		}
		m, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err != nil {
			*buf = *bytes.NewBuffer(b) // buf keeps the grown slice, for its pool
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
	}
}

// DecodeEstimateBody decodes one whole /v1/estimate body in the format
// contentType declares, keeping no reference to body. JSON goes through
// json.Unmarshal, ignoring unknown fields (such as older clients' "workers");
// a rejected body is decoded again by a json.Decoder only so the error reads
// as it always has. JSON strings too long for SPB1, which the router
// re-encodes to, are an error.
func DecodeEstimateBody(body []byte, contentType string) (*EstimateRequest, error) {
	if IsBinMedia(contentType) {
		return DecodeEstimateRequest(body)
	}
	req := new(EstimateRequest)
	if err := json.Unmarshal(body, req); err != nil {
		dec := json.NewDecoder(bytes.NewReader(body))
		if derr := dec.Decode(new(EstimateRequest)); derr != nil {
			return nil, derr
		}
		if _, derr := dec.Token(); derr != io.EOF {
			return nil, errors.New("trailing data after JSON body")
		}
		return nil, err
	}
	if err := CheckEstimateRequest(req); err != nil {
		return nil, err
	}
	return req, nil
}

// CheckEstimateRequest rejects request strings longer than SPB1's uint16
// length prefix carries, which AppendEstimateRequest would truncate.
func CheckEstimateRequest(req *EstimateRequest) error {
	for i, s := range req.Samples {
		if len(s.Metric) > math.MaxUint16 {
			return fmt.Errorf("wire: sample %d metric is %d bytes, over the %d-byte SPB1 string limit", i, len(s.Metric), math.MaxUint16)
		}
	}
	for i, ev := range req.Sched {
		if len(ev.Class) > math.MaxUint16 || len(ev.Obj) > math.MaxUint16 {
			return fmt.Errorf("wire: sched event %d class or obj is over the %d-byte SPB1 string limit", i, math.MaxUint16)
		}
	}
	return nil
}

// EncodeEstimateResponse renders res as a 200 /v1/estimate body in the
// format the Accept header negotiates (see ResponseType) and returns it
// with its Content-Type: what a json.Encoder writes (json.Marshal's bytes
// plus a newline) or AppendEstimateResponse's frame, built in a pooled
// buffer and returned as an exact-size copy the caller may keep.
func EncodeEstimateResponse(res *EstimateResponse, accept string) ([]byte, string, error) {
	ct := ResponseType(accept)
	buf := getBuffer()
	defer putBuffer(buf)
	if ct == ContentTypeBin {
		buf.Write(AppendEstimateResponse(buf.AvailableBuffer(), res))
	} else if err := json.NewEncoder(buf).Encode(res); err != nil {
		return nil, ct, err
	}
	return bytes.Clone(buf.Bytes()), ct, nil
}

// Msg identifies a frame's message type.
type Msg byte

const (
	// MsgEstimateRequest is a POST /v1/estimate request body: top, a
	// reserved slot, and the workload samples.
	MsgEstimateRequest Msg = 1
	// MsgEstimateResponse is a 200 /v1/estimate response body: the
	// serving model ID and the estimation.
	MsgEstimateResponse Msg = 2
	// MsgSampleBatch is one pre-parsed stream-feed interval: timestamp,
	// window tag, and the interval's samples.
	MsgSampleBatch Msg = 3
)

// magic opens every frame.
var magic = [4]byte{'S', 'P', 'B', '1'}

// HeaderSize is the fixed frame prefix: magic, type, payload length.
const HeaderSize = 9

// MaxPayload bounds a single frame's payload. It caps decoder buffering
// for streamed frames; one estimate body is bounded far lower by the
// server's request-size limit.
const MaxPayload = 64 << 20

// EstimateRequest is the /v1/estimate request body. Samples use the
// core.Sample JSON shape ({"metric","t","w","m","window"}).
type EstimateRequest struct {
	Samples []core.Sample `json:"samples"`
	// Top truncates the returned per-metric ranking; 0 returns all.
	Top int `json:"top,omitempty"`
	// Sched optionally carries the workload's scheduler events; when
	// present the response's estimation includes the combined
	// on-CPU/off-CPU report.
	Sched []core.SchedEvent `json:"sched,omitempty"`
}

// EstimateResponse is the 200 /v1/estimate response body.
type EstimateResponse struct {
	// Model is the serving model's content-addressed version ID.
	Model string `json:"model"`
	// Estimation is the full estimation result; identical to what
	// `spire analyze -json` prints for the same samples and model.
	Estimation *core.Estimation `json:"estimation"`
}

// SampleBatch is one stream-feed interval, the binary twin of the CSV
// interval the text feed path parses.
type SampleBatch struct {
	TS      float64
	Window  int
	Samples []core.Sample
	Sched   []core.SchedEvent
}

// FrameSize inspects the start of buf and reports the total byte length
// of the first frame (header + payload). It returns 0 with a nil error
// when buf is too short to tell, and an error when the prefix cannot be
// a valid frame (bad magic, unknown type, oversized payload) — streamed
// feeds use it to split frames without buffering unbounded garbage.
func FrameSize(buf []byte) (int, error) {
	if len(buf) >= 4 && [4]byte(buf[:4]) != magic {
		return 0, fmt.Errorf("wire: bad magic %q", buf[:4])
	}
	if len(buf) < HeaderSize {
		return 0, nil
	}
	switch Msg(buf[4]) {
	case MsgEstimateRequest, MsgEstimateResponse, MsgSampleBatch:
	default:
		return 0, fmt.Errorf("wire: unknown message type %d", buf[4])
	}
	n := binary.LittleEndian.Uint32(buf[5:9])
	if n > MaxPayload {
		return 0, fmt.Errorf("wire: payload length %d exceeds cap %d", n, MaxPayload)
	}
	return HeaderSize + int(n), nil
}

// appendHeader reserves a frame header; finishFrame patches the payload
// length once the payload is in place.
func appendHeader(dst []byte, t Msg) ([]byte, int) {
	dst = append(dst, magic[:]...)
	dst = append(dst, byte(t))
	dst = append(dst, 0, 0, 0, 0)
	return dst, len(dst)
}

func finishFrame(dst []byte, payloadStart int) []byte {
	binary.LittleEndian.PutUint32(dst[payloadStart-4:payloadStart], uint32(len(dst)-payloadStart))
	return dst
}

func appendString(dst []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func appendF64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// appendSamples writes the metric dictionary (first-appearance order)
// followed by the sample rows. Dictionary indices are uint32, so any
// sample count a frame can physically hold is representable — there is
// no silent-truncation edge.
func appendSamples(dst []byte, samples []core.Sample) []byte {
	idx := make(map[string]uint32, 16)
	var dict []string
	for _, s := range samples {
		if _, ok := idx[s.Metric]; !ok {
			idx[s.Metric] = uint32(len(dict))
			dict = append(dict, s.Metric)
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(dict)))
	for _, m := range dict {
		dst = appendString(dst, m)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(samples)))
	for _, s := range samples {
		dst = binary.LittleEndian.AppendUint32(dst, idx[s.Metric])
		dst = appendF64(dst, s.T)
		dst = appendF64(dst, s.W)
		dst = appendF64(dst, s.M)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(s.Window)))
	}
	return dst
}

// appendSchedEvents writes a scheduler-event list. Class names are
// written per event rather than dictionary-encoded: sched sections are
// optional extras on otherwise sample-dominated frames, and keeping the
// row self-contained keeps the section trivially skippable.
func appendSchedEvents(dst []byte, events []core.SchedEvent) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(events)))
	for _, ev := range events {
		dst = appendF64(dst, ev.Time)
		dst = appendString(dst, ev.Class)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(ev.Thread)))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(ev.Hart)))
		dst = appendString(dst, ev.Obj)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(ev.Waker)))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(ev.Window)))
	}
	return dst
}

// schedEventMinSize is the smallest encodable event row: time + two
// empty strings + thread, hart, waker, window.
const schedEventMinSize = 8 + 2 + 8 + 8 + 2 + 8 + 8

func (r *reader) schedEvents() []core.SchedEvent {
	n := r.count32(schedEventMinSize)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]core.SchedEvent, n)
	for i := range out {
		out[i] = core.SchedEvent{
			Time:   r.f64(),
			Class:  r.str(),
			Thread: int(r.i64()),
			Hart:   int(r.i64()),
			Obj:    r.str(),
			Waker:  int(r.i64()),
			Window: int(r.i64()),
		}
	}
	return out
}

// Trailing-section tags. A frame body may be followed by zero or more
// tagged sections; a frame with no sections is byte-identical to the
// encoding before that section existed, which is what pins the
// zero-sched freeze.
const (
	secSched    = 1 // request / sample-batch: scheduler events
	secCombined = 2 // response: combined on/off-CPU report
)

// AppendEstimateRequest appends req as one SPB1 frame and returns the
// extended slice.
func AppendEstimateRequest(dst []byte, req *EstimateRequest) []byte {
	dst, start := appendHeader(dst, MsgEstimateRequest)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(req.Top)))
	dst = binary.LittleEndian.AppendUint64(dst, 0) // reserved slot
	dst = appendSamples(dst, req.Samples)
	// Sched section: optional and strictly trailing, so requests without
	// scheduler events stay byte-identical to the pre-sched encoding.
	if len(req.Sched) > 0 {
		dst = append(dst, secSched)
		dst = appendSchedEvents(dst, req.Sched)
	}
	return finishFrame(dst, start)
}

// AppendEstimateResponse appends res as one SPB1 frame and returns the
// extended slice.
func AppendEstimateResponse(dst []byte, res *EstimateResponse) []byte {
	dst, start := appendHeader(dst, MsgEstimateResponse)
	dst = appendString(dst, res.Model)
	est := res.Estimation
	if est == nil {
		dst = append(dst, 0)
		return finishFrame(dst, start)
	}
	dst = append(dst, 1)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(est.PerMetric)))
	for _, m := range est.PerMetric {
		dst = appendString(dst, m.Metric)
		dst = appendF64(dst, m.MeanEstimate)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(m.Samples)))
		dst = appendF64(dst, m.MeanIntensity)
	}
	dst = appendF64(dst, est.MaxThroughput)
	dst = appendF64(dst, est.MeasuredThroughput)
	cov := est.Coverage
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(cov.ModelMetrics)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(cov.DataMetrics)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(cov.Shared)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(cov.DataOnly)))
	for _, m := range cov.DataOnly {
		dst = appendString(dst, m)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(cov.ModelOnly)))
	for _, m := range cov.ModelOnly {
		dst = appendString(dst, m)
	}
	// Hierarchy section: optional and strictly trailing. Flat estimations
	// append nothing, so their frames are byte-identical to the pre-
	// hierarchy encoding; decoders treat an exhausted payload here as "no
	// hierarchy".
	if h := est.Hierarchy; h != nil {
		dst = append(dst, 1)
		dst = appendString(dst, h.BindingLevel)
		dst = appendString(dst, h.BindingMetric)
		dst = appendF64(dst, h.BindingEstimate)
		dst = appendF64(dst, h.BoundThroughput)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(h.Levels)))
		for _, l := range h.Levels {
			dst = appendString(dst, l.Level)
			dst = appendString(dst, l.Metric)
			dst = appendF64(dst, l.MeanEstimate)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(l.Samples)))
			dst = appendF64(dst, l.MeanIntensity)
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(h.Surfaces)))
		for _, s := range h.Surfaces {
			dst = appendString(dst, s.Name)
			dst = appendString(dst, s.Param)
			dst = appendF64(dst, s.ParamValue)
			dst = appendF64(dst, s.Ceiling)
			if s.Binding {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	}
	// Combined section: like hierarchy, optional and strictly trailing.
	// Sections are self-identifying by tag, so a combined report on a
	// flat (no-hierarchy) estimation needs no placeholder.
	if c := est.Combined; c != nil {
		dst = append(dst, secCombined)
		dst = appendCombined(dst, c)
	}
	return finishFrame(dst, start)
}

func appendWaitVerdict(dst []byte, v *core.WaitVerdict) []byte {
	dst = appendString(dst, v.Kind)
	dst = appendString(dst, v.Object)
	dst = appendF64(dst, v.Wait)
	dst = appendF64(dst, v.Share)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(v.Waiters)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.Threads)))
	for _, t := range v.Threads {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(t)))
	}
	return dst
}

// waitVerdictMinSize is the smallest encodable verdict: two empty
// strings, wait, share, waiters, empty thread list.
const waitVerdictMinSize = 2 + 2 + 8 + 8 + 8 + 4

func (r *reader) waitVerdict() core.WaitVerdict {
	v := core.WaitVerdict{
		Kind:    r.str(),
		Object:  r.str(),
		Wait:    r.f64(),
		Share:   r.f64(),
		Waiters: int(r.i64()),
	}
	n := r.count32(8)
	if r.err == nil && n > 0 {
		v.Threads = make([]int, n)
		for i := range v.Threads {
			v.Threads[i] = int(r.i64())
		}
	}
	return v
}

func appendCombined(dst []byte, c *core.CombinedReport) []byte {
	p := c.Partition
	dst = appendF64(dst, p.Wall)
	dst = appendF64(dst, p.OnCPU)
	dst = appendF64(dst, p.OffCPU)
	dst = appendF64(dst, p.LockWait)
	dst = appendF64(dst, p.IOWait)
	dst = appendF64(dst, p.RunnableWait)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(p.Threads)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Waits)))
	for i := range c.Waits {
		dst = appendWaitVerdict(dst, &c.Waits[i])
	}
	if c.Knot {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Ranked)))
	for i := range c.Ranked {
		b := &c.Ranked[i]
		dst = appendString(dst, b.Source)
		dst = appendF64(dst, b.Score)
		dst = appendString(dst, b.Detail)
		dst = appendString(dst, b.Metric)
		if b.Wait != nil {
			dst = append(dst, 1)
			dst = appendWaitVerdict(dst, b.Wait)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

func (r *reader) combined() *core.CombinedReport {
	c := &core.CombinedReport{}
	c.Partition = core.TimePartition{
		Wall:         r.f64(),
		OnCPU:        r.f64(),
		OffCPU:       r.f64(),
		LockWait:     r.f64(),
		IOWait:       r.f64(),
		RunnableWait: r.f64(),
		Threads:      int(r.i64()),
	}
	nw := r.count32(waitVerdictMinSize)
	if r.err == nil && nw > 0 {
		c.Waits = make([]core.WaitVerdict, nw)
		for i := range c.Waits {
			c.Waits[i] = r.waitVerdict()
		}
	}
	c.Knot = r.u8() == 1
	nr := r.count32(2 + 8 + 2 + 2 + 1)
	if r.err == nil && nr > 0 {
		c.Ranked = make([]core.CombinedBottleneck, nr)
		for i := range c.Ranked {
			b := &c.Ranked[i]
			b.Source = r.str()
			b.Score = r.f64()
			b.Detail = r.str()
			b.Metric = r.str()
			if r.u8() == 1 {
				v := r.waitVerdict()
				if r.err == nil {
					b.Wait = &v
				}
			}
		}
	}
	if r.err != nil {
		return nil
	}
	return c
}

// AppendSampleBatch appends sb as one SPB1 frame and returns the
// extended slice.
func AppendSampleBatch(dst []byte, sb *SampleBatch) []byte {
	dst, start := appendHeader(dst, MsgSampleBatch)
	dst = appendF64(dst, sb.TS)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(sb.Window)))
	dst = appendSamples(dst, sb.Samples)
	if len(sb.Sched) > 0 {
		dst = append(dst, secSched)
		dst = appendSchedEvents(dst, sb.Sched)
	}
	return finishFrame(dst, start)
}

// reader walks a payload with saturating error tracking: the first
// underflow poisons every later read, so decode paths check err once at
// the end of each structure.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (r *reader) rem() int { return len(r.b) - r.off }

func (r *reader) take(n int) []byte {
	if r.err != nil || r.rem() < n {
		r.fail("truncated: need %d bytes at offset %d, have %d", n, r.off, r.rem())
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) i64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (r *reader) f64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (r *reader) str() string {
	n := int(r.u16())
	return string(r.take(n))
}

// count reads an element count and validates it against the bytes
// remaining at minimum element size, so a hostile count cannot size an
// allocation beyond the input itself.
func (r *reader) count32(minElem int) int {
	n := int(r.u32())
	if r.err == nil && n > r.rem()/minElem {
		r.fail("count %d exceeds remaining %d bytes (min element %d)", n, r.rem(), minElem)
		return 0
	}
	return n
}

// strings reads a length-prefixed string list (uint32 count).
func (r *reader) strings() []string {
	n := r.count32(2)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	return out
}

// sampleRowSize is one encoded sample row: dict index + T, W, M + window.
const sampleRowSize = 4 + 8 + 8 + 8 + 8

// samples reads a dictionary plus sample rows.
func (r *reader) samples() []core.Sample {
	nd := r.count32(2)
	if r.err != nil {
		return nil
	}
	dict := make([]string, nd)
	for i := range dict {
		dict[i] = r.str()
	}
	n := r.count32(sampleRowSize)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]core.Sample, n)
	for i := range out {
		k := int(r.u32())
		if r.err == nil && k >= len(dict) {
			r.fail("sample %d references metric %d of a %d-entry dictionary", i, k, len(dict))
			return nil
		}
		if r.err != nil {
			return nil
		}
		out[i] = core.Sample{
			Metric: dict[k],
			T:      r.f64(),
			W:      r.f64(),
			M:      r.f64(),
			Window: int(r.i64()),
		}
	}
	return out
}

// payload validates b's frame header against the wanted type and returns
// the payload bytes. Trailing bytes beyond the declared payload are an
// error: one HTTP body is one frame.
func payload(b []byte, want Msg) ([]byte, error) {
	n, err := FrameSize(b)
	if err != nil {
		return nil, err
	}
	if n == 0 || len(b) < n {
		return nil, fmt.Errorf("wire: truncated frame: have %d bytes of %d", len(b), n)
	}
	if len(b) > n {
		return nil, fmt.Errorf("wire: %d trailing bytes after frame", len(b)-n)
	}
	if got := Msg(b[4]); got != want {
		return nil, fmt.Errorf("wire: message type %d, want %d", got, want)
	}
	return b[HeaderSize:n], nil
}

// DecodeEstimateRequest decodes one MsgEstimateRequest frame.
func DecodeEstimateRequest(b []byte) (*EstimateRequest, error) {
	p, err := payload(b, MsgEstimateRequest)
	if err != nil {
		return nil, err
	}
	r := &reader{b: p}
	req := &EstimateRequest{Top: int(r.i64())}
	r.i64() // reserved slot: read and discarded
	req.Samples = r.samples()
	// Optional trailing sections; an exhausted payload is the flat
	// (zero-sched) encoding.
	sawSched := false
	for r.err == nil && r.rem() > 0 {
		switch tag := r.u8(); tag {
		case secSched:
			if sawSched {
				r.fail("duplicate sched section")
				break
			}
			sawSched = true
			req.Sched = r.schedEvents()
		default:
			r.fail("unknown request section tag %d", tag)
		}
	}
	if r.err == nil && r.rem() != 0 {
		r.fail("%d trailing payload bytes", r.rem())
	}
	if r.err != nil {
		return nil, r.err
	}
	return req, nil
}

// DecodeEstimateResponse decodes one MsgEstimateResponse frame.
func DecodeEstimateResponse(b []byte) (*EstimateResponse, error) {
	p, err := payload(b, MsgEstimateResponse)
	if err != nil {
		return nil, err
	}
	r := &reader{b: p}
	res := &EstimateResponse{Model: r.str()}
	if r.u8() == 1 {
		est := &core.Estimation{}
		n := r.count32(2 + 8 + 8 + 8)
		if r.err == nil && n > 0 {
			est.PerMetric = make([]core.MetricEstimate, n)
			for i := range est.PerMetric {
				est.PerMetric[i] = core.MetricEstimate{
					Metric:       r.str(),
					MeanEstimate: r.f64(),
					Samples:      int(r.i64()),
				}
				est.PerMetric[i].MeanIntensity = r.f64()
			}
		}
		est.MaxThroughput = r.f64()
		est.MeasuredThroughput = r.f64()
		est.Coverage.ModelMetrics = int(r.i64())
		est.Coverage.DataMetrics = int(r.i64())
		est.Coverage.Shared = int(r.i64())
		est.Coverage.DataOnly = r.strings()
		est.Coverage.ModelOnly = r.strings()
		// Optional trailing sections, each self-identifying by tag; their
		// absence (payload exhausted) is the flat encoding. Tag 0 is the
		// legacy explicit "no hierarchy" placeholder.
		sawHierarchy, sawCombined := false, false
		for r.err == nil && r.rem() > 0 {
			switch tag := r.u8(); tag {
			case 0:
			case 1:
				if sawHierarchy {
					r.fail("duplicate hierarchy section")
					break
				}
				sawHierarchy = true
				h := &core.HierarchyEstimate{
					BindingLevel:    r.str(),
					BindingMetric:   r.str(),
					BindingEstimate: r.f64(),
					BoundThroughput: r.f64(),
				}
				nl := r.count32(2 + 2 + 8 + 8 + 8)
				if r.err == nil && nl > 0 {
					h.Levels = make([]core.LevelEstimate, nl)
					for i := range h.Levels {
						h.Levels[i] = core.LevelEstimate{
							Level:        r.str(),
							Metric:       r.str(),
							MeanEstimate: r.f64(),
							Samples:      int(r.i64()),
						}
						h.Levels[i].MeanIntensity = r.f64()
					}
				}
				ns := r.count32(2 + 2 + 8 + 8 + 1)
				if r.err == nil && ns > 0 {
					h.Surfaces = make([]core.SurfaceEstimate, ns)
					for i := range h.Surfaces {
						h.Surfaces[i] = core.SurfaceEstimate{
							Name:       r.str(),
							Param:      r.str(),
							ParamValue: r.f64(),
							Ceiling:    r.f64(),
							Binding:    r.u8() == 1,
						}
					}
				}
				if r.err == nil {
					est.Hierarchy = h
				}
			case secCombined:
				if sawCombined {
					r.fail("duplicate combined section")
					break
				}
				sawCombined = true
				est.Combined = r.combined()
			default:
				r.fail("unknown hierarchy tag %d", tag)
			}
		}
		res.Estimation = est
	}
	if r.err == nil && r.rem() != 0 {
		r.fail("%d trailing payload bytes", r.rem())
	}
	if r.err != nil {
		return nil, r.err
	}
	return res, nil
}

// DecodeSampleBatch decodes one MsgSampleBatch frame.
func DecodeSampleBatch(b []byte) (*SampleBatch, error) {
	p, err := payload(b, MsgSampleBatch)
	if err != nil {
		return nil, err
	}
	r := &reader{b: p}
	sb := &SampleBatch{
		TS:     r.f64(),
		Window: int(r.i64()),
	}
	sb.Samples = r.samples()
	sawSched := false
	for r.err == nil && r.rem() > 0 {
		switch tag := r.u8(); tag {
		case secSched:
			if sawSched {
				r.fail("duplicate sched section")
				break
			}
			sawSched = true
			sb.Sched = r.schedEvents()
		default:
			r.fail("unknown batch section tag %d", tag)
		}
	}
	if r.err == nil && r.rem() != 0 {
		r.fail("%d trailing payload bytes", r.rem())
	}
	if r.err != nil {
		return nil, r.err
	}
	return sb, nil
}
