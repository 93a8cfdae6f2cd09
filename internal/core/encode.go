package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strconv"
	"unicode/utf8"
)

// modelEnvelope wraps an ensemble with a format version so that saved
// models can be rejected cleanly if the format ever changes.
type modelEnvelope struct {
	Format  string    `json:"format"`
	Version int       `json:"version"`
	Model   *Ensemble `json:"model"`
}

const (
	modelFormat  = "spire-ensemble"
	modelVersion = 1
)

// Save writes the trained ensemble as versioned JSON.
func (e *Ensemble) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(modelEnvelope{Format: modelFormat, Version: modelVersion, Model: e})
}

// LoadEnsemble reads an ensemble previously written with Save.
func LoadEnsemble(r io.Reader) (*Ensemble, error) {
	var env modelEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if env.Format != modelFormat {
		return nil, fmt.Errorf("core: unexpected model format %q", env.Format)
	}
	if env.Version != modelVersion {
		return nil, fmt.Errorf("core: unsupported model version %d", env.Version)
	}
	if env.Model == nil || len(env.Model.Rooflines) == 0 {
		return nil, fmt.Errorf("core: model contains no rooflines")
	}
	for name, r := range env.Model.Rooflines {
		if r == nil || len(r.Left) == 0 {
			return nil, fmt.Errorf("core: roofline %q is empty", name)
		}
	}
	return env.Model, nil
}

// jsonNum decodes a float64 that appendNum may have spelled "+Inf",
// "-Inf" or "NaN": estimations legitimately carry non-finite values
// (MeanIntensity is +Inf for never-firing metrics).
type jsonNum float64

func (n *jsonNum) UnmarshalJSON(b []byte) error {
	var s string
	if len(b) == 0 || b[0] != '"' {
		return json.Unmarshal(b, (*float64)(n))
	} else if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "+Inf", "Inf":
		*n = jsonNum(math.Inf(1))
	case "-Inf":
		*n = jsonNum(math.Inf(-1))
	case "NaN":
		*n = jsonNum(math.NaN())
	default:
		return fmt.Errorf("core: %q is not a number", s)
	}
	return nil
}

// The estimation types' UnmarshalJSON methods invert their encoding: each
// decodes through the shape encoding/json derives from the tags, with the
// float fields the encoder may spell as strings redirected to jsonNums at
// depth 0, which shadows the embedded type's fields of the same name.

func (m *MetricEstimate) UnmarshalJSON(b []byte) error {
	type plain MetricEstimate
	*m = MetricEstimate{}
	return json.Unmarshal(b, &struct {
		*plain
		MeanEstimate  *jsonNum `json:"meanEstimate"`
		MeanIntensity *jsonNum `json:"meanIntensity"`
	}{(*plain)(m), (*jsonNum)(&m.MeanEstimate), (*jsonNum)(&m.MeanIntensity)})
}

func (l *LevelEstimate) UnmarshalJSON(b []byte) error {
	type plain LevelEstimate
	*l = LevelEstimate{}
	return json.Unmarshal(b, &struct {
		*plain
		MeanEstimate  *jsonNum `json:"meanEstimate"`
		MeanIntensity *jsonNum `json:"meanIntensity"`
	}{(*plain)(l), (*jsonNum)(&l.MeanEstimate), (*jsonNum)(&l.MeanIntensity)})
}

func (s *SurfaceEstimate) UnmarshalJSON(b []byte) error {
	type plain SurfaceEstimate
	*s = SurfaceEstimate{}
	return json.Unmarshal(b, &struct {
		*plain
		ParamValue *jsonNum `json:"paramValue"`
		Ceiling    *jsonNum `json:"ceiling"`
	}{(*plain)(s), (*jsonNum)(&s.ParamValue), (*jsonNum)(&s.Ceiling)})
}

func (h *HierarchyEstimate) UnmarshalJSON(b []byte) error {
	type plain HierarchyEstimate
	*h = HierarchyEstimate{}
	return json.Unmarshal(b, &struct {
		*plain
		BindingEstimate *jsonNum `json:"bindingEstimate"`
		BoundThroughput *jsonNum `json:"boundThroughput"`
	}{(*plain)(h), (*jsonNum)(&h.BindingEstimate), (*jsonNum)(&h.BoundThroughput)})
}

func (est *Estimation) UnmarshalJSON(b []byte) error {
	type plain Estimation
	*est = Estimation{}
	return json.Unmarshal(b, &struct {
		*plain
		MaxThroughput      *jsonNum `json:"maxThroughput"`
		MeasuredThroughput *jsonNum `json:"measuredThroughput"`
	}{(*plain)(est), (*jsonNum)(&est.MaxThroughput), (*jsonNum)(&est.MeasuredThroughput)})
}

// MarshalJSON encodes the estimation in one append pass, with the bytes
// encoding/json would write for the field tags — HTML-safe string
// escapes, its float format, omitempty — except that the flat and
// hierarchy floats spell non-finite values as "+Inf", "-Inf" and "NaN",
// so that part of the encoding never fails. The combined report's floats
// are cycle counts and shares, finite by construction; a non-finite one
// fails the encoding with encoding/json's own UnsupportedValueError.
func (est Estimation) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 1024+160*len(est.PerMetric))
	b = appendArray(append(b, `{"perMetric":`...), est.PerMetric, appendMetricEstimate)
	b = appendNum(append(b, `,"maxThroughput":`...), est.MaxThroughput)
	b = appendNum(append(b, `,"measuredThroughput":`...), est.MeasuredThroughput)
	cov := &est.Coverage
	b = strconv.AppendInt(append(b, `,"coverage":{"modelMetrics":`...), int64(cov.ModelMetrics), 10)
	b = strconv.AppendInt(append(b, `,"dataMetrics":`...), int64(cov.DataMetrics), 10)
	b = strconv.AppendInt(append(b, `,"shared":`...), int64(cov.Shared), 10)
	if len(cov.DataOnly) > 0 {
		b = appendArray(append(b, `,"dataOnly":`...), cov.DataOnly, appendStringAt)
	}
	if len(cov.ModelOnly) > 0 {
		b = appendArray(append(b, `,"modelOnly":`...), cov.ModelOnly, appendStringAt)
	}
	b = append(b, '}')
	if est.Hierarchy != nil {
		b = appendHierarchy(append(b, `,"hierarchy":`...), est.Hierarchy)
	}
	if c := est.Combined; c != nil {
		var fa finiteAppender
		p := &c.Partition
		b = fa.float(append(b, `,"combined":{"partition":{"wall":`...), p.Wall)
		b = fa.float(append(b, `,"onCPU":`...), p.OnCPU)
		b = fa.float(append(b, `,"offCPU":`...), p.OffCPU)
		b = fa.float(append(b, `,"lockWait":`...), p.LockWait)
		b = fa.float(append(b, `,"ioWait":`...), p.IOWait)
		b = fa.float(append(b, `,"runnableWait":`...), p.RunnableWait)
		b = strconv.AppendInt(append(b, `,"threads":`...), int64(p.Threads), 10)
		b = append(b, '}')
		if len(c.Waits) > 0 {
			b = appendArray(append(b, `,"waits":`...), c.Waits, fa.wait)
		}
		if c.Knot {
			b = append(b, `,"knot":true`...)
		}
		b = append(appendArray(append(b, `,"ranked":`...), c.Ranked, fa.bottleneck), '}')
		if fa.err != nil {
			return nil, fa.err
		}
	}
	return append(b, '}'), nil
}

func appendMetricEstimate(b []byte, m *MetricEstimate) []byte {
	b = appendString(append(b, `{"metric":`...), m.Metric)
	b = appendNum(append(b, `,"meanEstimate":`...), m.MeanEstimate)
	b = strconv.AppendInt(append(b, `,"samples":`...), int64(m.Samples), 10)
	return append(appendNum(append(b, `,"meanIntensity":`...), m.MeanIntensity), '}')
}

func appendLevel(b []byte, l *LevelEstimate) []byte {
	b = appendString(append(b, `{"level":`...), l.Level)
	b = appendString(append(b, `,"metric":`...), l.Metric)
	b = appendNum(append(b, `,"meanEstimate":`...), l.MeanEstimate)
	b = strconv.AppendInt(append(b, `,"samples":`...), int64(l.Samples), 10)
	return append(appendNum(append(b, `,"meanIntensity":`...), l.MeanIntensity), '}')
}

func appendSurface(b []byte, s *SurfaceEstimate) []byte {
	b = append(b, '{')
	if s.Name != "" {
		b = append(appendString(append(b, `"name":`...), s.Name), ',')
	}
	b = appendString(append(b, `"param":`...), s.Param)
	b = appendNum(append(b, `,"paramValue":`...), s.ParamValue)
	b = appendNum(append(b, `,"ceiling":`...), s.Ceiling)
	return append(strconv.AppendBool(append(b, `,"binding":`...), s.Binding), '}')
}

func appendHierarchy(b []byte, h *HierarchyEstimate) []byte {
	b = appendString(append(b, `{"bindingLevel":`...), h.BindingLevel)
	b = appendString(append(b, `,"bindingMetric":`...), h.BindingMetric)
	b = appendNum(append(b, `,"bindingEstimate":`...), h.BindingEstimate)
	b = appendNum(append(b, `,"boundThroughput":`...), h.BoundThroughput)
	b = appendArray(append(b, `,"levels":`...), h.Levels, appendLevel)
	if len(h.Surfaces) > 0 {
		b = appendArray(append(b, `,"surfaces":`...), h.Surfaces, appendSurface)
	}
	return append(b, '}')
}

// finiteAppender appends the combined report, whose plain float64 fields
// encoding/json refuses to encode when non-finite; err keeps the first
// refusal.
type finiteAppender struct{ err error }

func (fa *finiteAppender) float(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if fa.err == nil {
			fa.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return b
	}
	return appendFloat(b, f)
}

func (fa *finiteAppender) wait(b []byte, v *WaitVerdict) []byte {
	b = appendString(append(b, `{"kind":`...), v.Kind)
	if v.Object != "" {
		b = appendString(append(b, `,"object":`...), v.Object)
	}
	b = fa.float(append(b, `,"wait":`...), v.Wait)
	b = fa.float(append(b, `,"share":`...), v.Share)
	b = strconv.AppendInt(append(b, `,"waiters":`...), int64(v.Waiters), 10)
	if len(v.Threads) > 0 {
		b = appendArray(append(b, `,"threads":`...), v.Threads, func(b []byte, t *int) []byte {
			return strconv.AppendInt(b, int64(*t), 10)
		})
	}
	return append(b, '}')
}

func (fa *finiteAppender) bottleneck(b []byte, r *CombinedBottleneck) []byte {
	b = appendString(append(b, `{"source":`...), r.Source)
	b = fa.float(append(b, `,"score":`...), r.Score)
	b = appendString(append(b, `,"detail":`...), r.Detail)
	if r.Metric != "" {
		b = appendString(append(b, `,"metric":`...), r.Metric)
	}
	if r.Wait != nil {
		b = fa.wait(append(b, `,"wait":`...), r.Wait)
	}
	return append(b, '}')
}

// appendArray appends s as a JSON array of elem's encodings, or null
// when s is nil.
func appendArray[T any](b []byte, s []T, elem func([]byte, *T) []byte) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, &s[i])
	}
	return append(b, ']')
}

// appendNum appends f as jsonNum's encoding: a JSON number when finite,
// otherwise the string "+Inf", "-Inf" or "NaN".
func appendNum(b []byte, f float64) []byte {
	switch {
	case math.IsInf(f, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(f, -1):
		return append(b, `"-Inf"`...)
	case math.IsNaN(f):
		return append(b, `"NaN"`...)
	}
	return appendFloat(b, f)
}

// appendFloat appends finite f exactly as encoding/json encodes a
// float64: like ES6 number-to-string, 'f' format between 1e-6 and 1e21
// and 'e' outside it, with a single-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 -> e-7
		b = b[:n-1]
	}
	return b
}

func appendStringAt(b []byte, s *string) []byte { return appendString(b, *s) }

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string exactly as encoding/json
// escapes it with HTML escaping on (json.Marshal's default): quote,
// backslash, control characters, '<', '>', '&', U+2028 and U+2029 are
// escaped, and each invalid UTF-8 byte becomes \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(append(b, s[start:i]...), `\ufffd`...)
			start = i + size
		} else if r == '\u2028' || r == '\u2029' {
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	return append(append(b, s[start:]...), '"')
}

// CheckInvariants verifies every roofline in the ensemble against the
// structural properties the paper requires (Roofline.CheckInvariants),
// reporting the first violation. LoadEnsemble deliberately tolerates
// structurally odd chains (Eval never panics on them); callers accepting
// models from untrusted sources — the serving tier's model registry in
// particular — gate uploads on this check instead.
func (e *Ensemble) CheckInvariants() error {
	if len(e.Rooflines) == 0 {
		return fmt.Errorf("core: ensemble has no rooflines")
	}
	names := make([]string, 0, len(e.Rooflines))
	for name := range e.Rooflines {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := e.Rooflines[name]
		if r == nil {
			return fmt.Errorf("core: roofline %q is nil", name)
		}
		if err := r.CheckInvariants(); err != nil {
			return fmt.Errorf("core: roofline %q: %w", name, err)
		}
	}
	if e.Hierarchy != nil {
		if err := e.Hierarchy.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Fingerprint returns the hex SHA-256 of the ensemble's canonical Save
// encoding. Save output is deterministic (encoding/json sorts map keys),
// so equal models — including a model round-tripped through
// Save/LoadEnsemble — share a fingerprint, and the serving tier can use
// it as a content-addressed model version ID.
func (e *Ensemble) Fingerprint() (string, error) {
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// WriteDataset writes a dataset as JSON.
func WriteDataset(w io.Writer, d Dataset) error {
	enc := json.NewEncoder(w)
	return enc.Encode(d)
}

// ReadDataset reads a dataset previously written with WriteDataset.
func ReadDataset(r io.Reader) (Dataset, error) {
	var d Dataset
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return Dataset{}, fmt.Errorf("core: decoding dataset: %w", err)
	}
	return d, nil
}
