package wire

import (
	"bytes"
	"encoding/json"
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

// ScanEstimateJSON decodes a JSON body in the canonical shape — what
// json.Marshal writes, whitespace allowed: known exact-case keys at most
// once per object, numbers in JSON's grammar parsed by strconv as
// encoding/json parses them, escape-free strings in valid UTF-8 without
// control bytes — and runs CheckEstimateRequest, in one pass, without
// encoding/json and keeping no reference to body. What it accepts,
// DecodeEstimateBody decodes to the same request; anything else (escapes,
// other key case, duplicate or unknown keys, null, fractional or
// overflowing numbers, bad input) returns false.
func ScanEstimateJSON(body []byte) (*EstimateRequest, bool) {
	req := new(EstimateRequest)
	if !scanRequest(body, req) || CheckEstimateRequest(req) != nil {
		return nil, false
	}
	return req, true
}

// UnmarshalJSON decodes a request with ScanEstimateJSON's scanner. A body
// outside the canonical shape, or a non-zero receiver, is decoded by
// reflection into a method-free type of the same name, so results and
// error texts are encoding/json's own.
func (req *EstimateRequest) UnmarshalJSON(b []byte) error {
	if req.Samples == nil && req.Sched == nil && req.Top == 0 {
		if scanRequest(b, req) {
			return nil
		}
		*req = EstimateRequest{}
	}
	type EstimateRequest estimateRequest
	return json.Unmarshal(b, (*EstimateRequest)(req))
}

// reqScanner reads the canonical shape; bad means fall back to reflection.
type reqScanner struct {
	b     []byte
	i     int
	bad   bool
	names map[string]string
}

// scanRequest reads b into req, reporting whether b is in the canonical
// shape.
func scanRequest(b []byte, req *EstimateRequest) bool {
	s := &reqScanner{b: b, names: map[string]string{}}
	s.object(func(k []byte) bool {
		switch string(k) {
		case "samples":
			req.Samples = scanArray(s, func(p *core.Sample) {
				s.object(func(k []byte) bool {
					switch string(k) {
					case "metric":
						p.Metric = s.name()
					case "t":
						p.T = s.float()
					case "w":
						p.W = s.float()
					case "m":
						p.M = s.float()
					case "window":
						p.Window = s.int()
					default:
						return false
					}
					return true
				})
			})
		case "top":
			req.Top = s.int()
		case "sched":
			req.Sched = scanArray(s, func(p *core.SchedEvent) {
				s.object(func(k []byte) bool {
					switch string(k) {
					case "time":
						p.Time = s.float()
					case "class":
						p.Class = s.name()
					case "thread":
						p.Thread = s.int()
					case "hart":
						p.Hart = s.int()
					case "obj":
						p.Obj = s.name()
					case "waker":
						p.Waker = s.int()
					case "window":
						p.Window = s.int()
					default:
						return false
					}
					return true
				})
			})
		default:
			return false
		}
		return true
	})
	s.ws()
	return !s.bad && s.i == len(s.b)
}

// scanArray reads an array of objects into a slice sized by counting them
// first; a string ending in a backslash could hide its quote from the count.
func scanArray[T any](s *reqScanner, elem func(*T)) []T {
	if !s.next('[') {
		s.bad = true
		return nil
	}
	n, depth := 0, 0
count:
	for i := s.i; i < len(s.b); i++ {
		switch s.b[i] {
		case '"':
			j := bytes.IndexByte(s.b[i+1:], '"')
			if j < 0 || s.b[i+j] == '\\' {
				s.bad = true
				return nil
			}
			i += j + 1
		case '{', '[':
			if depth == 0 && s.b[i] == '{' {
				n++
			}
			depth++
		case '}', ']':
			if depth == 0 {
				break count
			}
			depth--
		}
	}
	out := make([]T, 0, n)
	for !s.bad && !s.next(']') {
		if len(out) > 0 && !s.next(',') {
			s.bad = true
			break
		}
		out = append(out, *new(T))
		elem(&out[len(out)-1])
	}
	return out
}

// object hands each key to field, which decodes the value or returns false
// for an unknown key; repeated keys and oversized objects end the fast path.
func (s *reqScanner) object(field func(key []byte) bool) {
	if !s.next('{') {
		s.bad = true
		return
	}
	var seen [8][]byte
	for n := 0; !s.bad && !s.next('}'); n++ {
		if n > 0 && !s.next(',') || n == len(seen) {
			s.bad = true
			return
		}
		k := s.str()
		for _, prev := range seen[:n] {
			s.bad = s.bad || bytes.Equal(prev, k)
		}
		seen[n] = k
		if s.bad || !s.next(':') || !field(k) {
			s.bad = true
		}
	}
}

func (s *reqScanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// next skips whitespace and consumes c if it comes next.
func (s *reqScanner) next(c byte) bool {
	s.ws()
	return s.skip(c)
}

// skip consumes c if it comes next.
func (s *reqScanner) skip(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str returns a string's bytes in place, up to the next quote. Only names
// are checked further: a key with an escape, a control byte or invalid
// UTF-8 matches no known key anyway.
func (s *reqScanner) str() []byte {
	j := -1
	if s.next('"') {
		j = bytes.IndexByte(s.b[s.i:], '"')
	}
	if j < 0 {
		s.bad = true
		return nil
	}
	v := s.b[s.i : s.i+j]
	s.i += j + 1
	return v
}

// name reads a string value, sharing one string per distinct name among
// the first 1024, so a body of distinct names cannot grow the table further.
// A name is checked for escapes, control bytes and invalid UTF-8 when it
// misses the table: a hit equals a name already checked.
func (s *reqScanner) name() string {
	v := s.str()
	if name, ok := s.names[string(v)]; ok {
		return name
	}
	for _, c := range v {
		s.bad = s.bad || c < 0x20 || c == '\\'
	}
	s.bad = s.bad || !utf8.Valid(v)
	name := string(v)
	if len(s.names) < 1024 {
		s.names[name] = name
	}
	return name
}

// num reads a number literal in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?; anything else is bad.
func (s *reqScanner) num() []byte {
	s.ws()
	start := s.i
	s.skip('-')
	ok := s.skip('0') || s.digits()
	if ok && s.skip('.') {
		ok = s.digits()
	}
	if ok && (s.skip('e') || s.skip('E')) {
		_ = s.skip('+') || s.skip('-')
		ok = s.digits()
	}
	s.bad = s.bad || !ok
	return s.b[start:s.i]
}

// digits consumes decimal digits, reporting whether there was one.
func (s *reqScanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

func (s *reqScanner) float() float64 {
	f, err := strconv.ParseFloat(string(s.num()), 64)
	s.bad = s.bad || err != nil
	return f
}

func (s *reqScanner) int() int {
	n, err := strconv.ParseInt(string(s.num()), 10, strconv.IntSize)
	s.bad = s.bad || err != nil
	return int(n)
}
