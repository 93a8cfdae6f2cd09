package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"sync"
	"unicode/utf8"

	"spire/internal/core"
)

// maxPooledBuffer caps the body and response buffers kept for reuse, so
// one huge request does not pin its buffer for the life of the process.
const maxPooledBuffer = 1 << 20

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// GetBuffer returns an empty buffer from the pool that request bodies are
// read into and responses built in.
func GetBuffer() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

// PutBuffer returns b to the pool unless it has grown past 1 MiB. Nothing
// may use b, or a slice of its bytes, afterwards.
func PutBuffer(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuffer {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// estimateRequest lets UnmarshalJSON's reflection fallback declare a
// method-free type under EstimateRequest's own name.
type estimateRequest = EstimateRequest

// ErrNotCanonical is ScanEstimateBody's answer for a body outside the
// canonical shape: DecodeEstimateBody must decide it.
var ErrNotCanonical = errors.New("wire: JSON body outside the canonical shape")

// errStringLimit is ScanEstimateBody's answer for a canonical body with a
// string over SPB1's limit, which DecodeEstimateBody refuses as well.
var errStringLimit = fmt.Errorf("wire: a request string is over the %d-byte SPB1 string limit", math.MaxUint16)

// ScanEstimateBody decodes a JSON body in the canonical shape — what
// json.Marshal writes, whitespace allowed: known exact-case keys at most
// once per object, numbers in JSON's grammar decoded as encoding/json
// decodes them, escape-free strings in valid UTF-8 without control bytes —
// in one pass, without encoding/json and keeping no reference to body.
// What it accepts, DecodeEstimateBody decodes to the same request. Any
// other body (escapes, other key case, duplicate or unknown keys, null,
// fractional or overflowing integers, bad input) returns ErrNotCanonical.
// A canonical body with a metric, class or obj over SPB1's 65,535-byte
// string limit returns an error without that string being copied:
// DecodeEstimateBody refuses such a body too.
func ScanEstimateBody(body []byte) (*EstimateRequest, error) {
	req := new(EstimateRequest)
	if err := scanRequest(body, req); err != nil {
		return nil, err
	}
	return req, nil
}

// UnmarshalJSON decodes a request with ScanEstimateBody's scanner. A body
// it does not decode, or a non-zero receiver, is decoded by reflection
// into a method-free type of the same name, so results and error texts are
// encoding/json's own.
func (req *EstimateRequest) UnmarshalJSON(b []byte) error {
	if req.Samples == nil && req.Sched == nil && req.Top == 0 {
		if scanRequest(b, req) == nil {
			return nil
		}
		*req = EstimateRequest{}
	}
	type EstimateRequest estimateRequest
	return json.Unmarshal(b, (*EstimateRequest)(req))
}

// reqScanner reads the canonical shape: bad means it is not, long that a
// string is over SPB1's limit.
type reqScanner struct {
	b         []byte
	i         int
	bad, long bool
	names     map[string]string
}

// scanRequest reads b into req: nil, ErrNotCanonical or errStringLimit.
func scanRequest(b []byte, req *EstimateRequest) error {
	s := &reqScanner{b: b, names: map[string]string{}}
	s.open()
	var seen uint
	for n := 0; ; n++ {
		k, ok := s.key(n)
		if !ok {
			break
		}
		var bit uint
		switch string(k) {
		case "samples":
			bit, req.Samples = 1, s.samples()
		case "top":
			bit, req.Top = 2, s.int()
		case "sched":
			bit, req.Sched = 4, s.events()
		default:
			s.bad = true
		}
		s.once(&seen, bit)
	}
	s.i = skipWS(b, s.i)
	switch {
	case s.bad || s.i != len(b):
		return ErrNotCanonical
	case s.long:
		return errStringLimit
	}
	return nil
}

// sample reads one sample object into p.
func (s *reqScanner) sample(p *core.Sample) {
	s.open()
	var seen uint
	for n := 0; ; n++ {
		k, ok := s.key(n)
		if !ok {
			return
		}
		var bit uint
		switch string(k) {
		case "metric":
			bit, p.Metric = 1, s.name()
		case "t":
			bit, p.T = 2, s.float()
		case "w":
			bit, p.W = 4, s.float()
		case "m":
			bit, p.M = 8, s.float()
		case "window":
			bit, p.Window = 16, s.int()
		default:
			s.bad = true
		}
		s.once(&seen, bit)
	}
}

// event reads one scheduler event object into p.
func (s *reqScanner) event(p *core.SchedEvent) {
	s.open()
	var seen uint
	for n := 0; ; n++ {
		k, ok := s.key(n)
		if !ok {
			return
		}
		var bit uint
		switch string(k) {
		case "time":
			bit, p.Time = 1, s.float()
		case "class":
			bit, p.Class = 2, s.name()
		case "thread":
			bit, p.Thread = 4, s.int()
		case "hart":
			bit, p.Hart = 8, s.int()
		case "obj":
			bit, p.Obj = 16, s.name()
		case "waker":
			bit, p.Waker = 32, s.int()
		case "window":
			bit, p.Window = 64, s.int()
		default:
			s.bad = true
		}
		s.once(&seen, bit)
	}
}

// once marks a key's bit seen; a repeated key ends the fast path.
func (s *reqScanner) once(seen *uint, bit uint) {
	s.bad = s.bad || *seen&bit != 0
	*seen |= bit
}

// open consumes an object's opening brace.
func (s *reqScanner) open() {
	s.bad = s.bad || !s.next('{')
}

// key reads an object's next key and colon, n keys in, reporting false at
// the closing brace or once the scan has gone bad. No known key is longer
// than seven bytes, so the closing quote is looked for in eight.
func (s *reqScanner) key(n int) ([]byte, bool) {
	if s.bad {
		return nil, false
	}
	b, i := s.b, skipWS(s.b, s.i)
	if i < len(b) && b[i] == '}' {
		s.i = i + 1
		return nil, false
	}
	if n > 0 {
		if i >= len(b) || b[i] != ',' {
			s.bad = true
			return nil, false
		}
		i = skipWS(b, i+1)
	}
	if i >= len(b) || b[i] != '"' {
		s.bad = true
		return nil, false
	}
	i++
	j, end := i, min(len(b), i+8)
	for j < end && b[j] != '"' {
		j++
	}
	if j == len(b) || b[j] != '"' {
		s.bad = true
		return nil, false
	}
	k := b[i:j]
	if i = skipWS(b, j+1); i >= len(b) || b[i] != ':' {
		s.bad = true
		return nil, false
	}
	s.i = i + 1
	return k, true
}

// samples reads an array of sample objects into a slice of its size.
func (s *reqScanner) samples() []core.Sample {
	out := make([]core.Sample, 0, s.items())
	for s.item(len(out)) {
		out = append(out, core.Sample{})
		s.sample(&out[len(out)-1])
	}
	return out
}

// events reads an array of scheduler events into a slice of its size.
func (s *reqScanner) events() []core.SchedEvent {
	out := make([]core.SchedEvent, 0, s.items())
	for s.item(len(out)) {
		out = append(out, core.SchedEvent{})
		s.event(&out[len(out)-1])
	}
	return out
}

// items consumes an array's opening bracket and counts its objects.
func (s *reqScanner) items() int {
	if !s.next('[') {
		s.bad = true
		return 0
	}
	return s.count()
}

// item reports whether another element follows n read ones, consuming
// the comma before it, and false at the closing bracket or once the scan
// has gone bad.
func (s *reqScanner) item(n int) bool {
	if s.bad || s.next(']') {
		return false
	}
	s.bad = n > 0 && !s.next(',')
	return !s.bad
}

// count returns how many objects the array at s.i holds, at most one per
// three bytes (an object and its comma), so adjacent "{}{}" cannot size a
// slice past what valid input could. It reads eight bytes at a time, tells
// which lie inside quotes from the running parity of the quotes before
// them, and looks at single bytes only where a bracket or brace may lie
// outside them. A canonical body has no backslash, so its quotes pair up;
// an escaped quote can skew the count only past the first backslash, and
// the scan stops at the string holding that.
func (s *reqScanner) count() int {
	b := s.b[s.i:]
	n, depth, quoted := 0, 0, uint64(0)
	for i := 0; i < len(b); i += 8 {
		var x uint64
		if i+8 <= len(b) {
			x = binary.LittleEndian.Uint64(b[i:])
		} else {
			var tail [8]byte
			copy(tail[:], b[i:])
			x = binary.LittleEndian.Uint64(tail[:])
		}
		in := prefixXor(eq(x, '"')) ^ -quoted
		quoted = in >> 63
		// Setting bits 0x26 turns each of "[]{}" into 0x7f, along with
		// "Yy_" and 0x7f, which only appear inside quotes in canonical JSON.
		for br := eq(x|0x26*ones, 0x7f) &^ in; br != 0; br &= br - 1 {
			j := i + bits.TrailingZeros64(br)/8
			switch c := b[j]; c {
			case '{', '[':
				if depth == 0 && c == '{' {
					n++
				}
				depth++
			case '}', ']':
				if depth == 0 {
					return min(n, (j+1)/3)
				}
				depth--
			}
		}
	}
	return min(n, (len(b)+1)/3)
}

// ones has a 1 in every byte.
const ones = 0x0101010101010101

// eq returns x with the top bit of each byte that equals c set and every
// other bit clear.
func eq(x uint64, c byte) uint64 {
	const low = 0x7f * ones
	x ^= uint64(c) * ones
	return ^((x&low + low) | x | low)
}

// prefixXor sets each byte's top bit of x to the parity of the top bits of
// that byte and the ones below it.
func prefixXor(x uint64) uint64 {
	x ^= x << 8
	x ^= x << 16
	return x ^ x<<32
}

// skipWS returns the index of the first byte from i on that is not
// whitespace; what json.Marshal writes has none, so the first compare
// usually ends it.
func skipWS(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// next skips whitespace and consumes c if it comes next.
func (s *reqScanner) next(c byte) bool {
	s.i = skipWS(s.b, s.i)
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// name reads a string value, sharing one string per distinct name among
// the first 1024, so a body of distinct names cannot grow the table
// further. Its closing quote is looked for byte by byte in the first 16
// bytes (names are short) and with bytes.IndexByte past them. A name is
// checked for escapes, control bytes and invalid UTF-8 when it misses the
// table: a hit equals a name already checked. A name over SPB1's string
// limit is checked, not copied.
func (s *reqScanner) name() string {
	b, i := s.b, skipWS(s.b, s.i)
	if i >= len(b) || b[i] != '"' {
		s.bad = true
		return ""
	}
	i++
	j, end := i, min(len(b), i+16)
	for j < end && b[j] != '"' {
		j++
	}
	if j == end {
		k := bytes.IndexByte(b[j:], '"')
		if k < 0 {
			s.bad = true
			return ""
		}
		j += k
	}
	s.i = j + 1
	v := b[i:j]
	if len(v) > math.MaxUint16 {
		s.long = true
		s.check(v)
		return ""
	}
	if name, ok := s.names[string(v)]; ok {
		return name
	}
	s.check(v)
	name := string(v)
	if len(s.names) < 1024 {
		s.names[name] = name
	}
	return name
}

// check marks a name with an escape, a control byte or invalid UTF-8 bad.
func (s *reqScanner) check(v []byte) {
	for _, c := range v {
		s.bad = s.bad || c < 0x20 || c == '\\'
	}
	s.bad = s.bad || !utf8.Valid(v)
}

// number reads a literal in JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, marking anything else
// bad. For a plain integer it also returns, from the same pass, its
// sign, its digit count nd and, when nd <= 19, their value mant; nd is 0
// for any other literal.
func (s *reqScanner) number() (lit []byte, neg bool, mant uint64, nd int) {
	b, i := s.b, skipWS(s.b, s.i)
	start := i
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	d := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		mant = mant*10 + uint64(b[i]-'0')
	}
	nd = i - d
	ok := nd == 1 || nd > 1 && b[d] != '0'
	if ok && i < len(b) && b[i] == '.' {
		i, ok = digits(b, i+1)
		nd = 0
	}
	if ok && i < len(b) && b[i]|0x20 == 'e' {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		i, ok = digits(b, i)
		nd = 0
	}
	s.i = i
	s.bad = s.bad || !ok
	return b[start:i], neg, mant, nd
}

// digits skips the decimal digits at b[i:], reporting whether there was
// one.
func digits(b []byte, i int) (int, bool) {
	j := i
	for j < len(b) && b[j]-'0' <= 9 {
		j++
	}
	return j, j > i
}

// float reads a number as strconv.ParseFloat does. An integer of at most
// 15 digits is below 2^53, where every integer is a float64, so the
// conversion is exact and is the correctly rounded value ParseFloat
// returns; the sign is applied after it, so -0 stays -0.
func (s *reqScanner) float() float64 {
	lit, neg, mant, nd := s.number()
	if nd > 0 && nd <= 15 {
		f := float64(mant)
		if neg {
			f = -f
		}
		return f
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	s.bad = s.bad || err != nil
	return f
}

// int reads a number as strconv.ParseInt does. An integer of at most 18
// digits fits an int64, so its digits are its value.
func (s *reqScanner) int() int {
	lit, neg, mant, nd := s.number()
	if nd > 0 && nd <= 18 {
		n := int64(mant)
		if neg {
			n = -n
		}
		if int64(int(n)) == n {
			return int(n)
		}
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	s.bad = s.bad || err != nil
	return int(n)
}
