package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"spire/internal/core"
	"spire/internal/testutil"
)

// TestWorkloadKeyDigest pins the workload key's digest: SHA-256 of the
// compact stream of ids, first-appearance names, period tags and values.
// The router's ring places workloads by this key, so a change to the
// hashed byte stream would move every workload to a different shard.
func TestWorkloadKeyDigest(t *testing.T) {
	const want = "fcb16c1b9371588114162a45330159fdfeb3da968b0c81f00e4b1d6373400c26"
	if got := hex.EncodeToString([]byte(WorkloadKey(testutil.Samples()))); got != want {
		t.Fatalf("WorkloadKey(testutil.Samples()) = %s, want %s", got, want)
	}
}

// refKeyStream writes the key stream plainly: a map numbers the names,
// and every record is appended whole, with no buffer to flush.
func refKeyStream(samples []core.Sample) []byte {
	var out []byte
	ids := map[string]uint64{}
	var prev *core.Sample
	for i := range samples {
		s := &samples[i]
		id, seen := ids[s.Metric]
		if !seen {
			id = uint64(len(ids))
			ids[s.Metric] = id
		}
		out = binary.AppendUvarint(out, id)
		if !seen {
			out = binary.AppendUvarint(out, uint64(len(s.Metric)))
			out = append(out, s.Metric...)
		}
		if prev != nil && math.Float64bits(prev.T) == math.Float64bits(s.T) &&
			math.Float64bits(prev.W) == math.Float64bits(s.W) && prev.Window == s.Window {
			out = append(out, 0)
		} else {
			out = append(out, 1)
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.T))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.W))
			out = binary.LittleEndian.AppendUint64(out, uint64(int64(s.Window)))
		}
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.M))
		prev = s
	}
	return out
}

// readKeyStream decodes a key stream back to its samples. A stream it
// accepts has exactly one sample list, so a key over that stream is as
// collision-resistant as SHA-256.
func readKeyStream(b []byte) ([]core.Sample, error) {
	var out []core.Sample
	var names []string
	uvarint := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, fmt.Errorf("bad uvarint at %x", b)
		}
		b = b[n:]
		return v, nil
	}
	u64 := func() (uint64, error) {
		if len(b) < 8 {
			return 0, fmt.Errorf("short value: %d bytes left", len(b))
		}
		v := binary.LittleEndian.Uint64(b)
		b = b[8:]
		return v, nil
	}
	for len(b) > 0 {
		id, err := uvarint()
		if err != nil {
			return nil, err
		}
		switch {
		case id == uint64(len(names)):
			n, err := uvarint()
			if err != nil {
				return nil, err
			}
			if n > uint64(len(b)) {
				return nil, fmt.Errorf("name of %d bytes, %d left", n, len(b))
			}
			names = append(names, string(b[:n]))
			b = b[n:]
		case id > uint64(len(names)):
			return nil, fmt.Errorf("id %d before id %d", id, len(names))
		}
		s := core.Sample{Metric: names[id]}
		if len(b) == 0 {
			return nil, fmt.Errorf("missing period tag")
		}
		tag := b[0]
		b = b[1:]
		switch {
		case tag == 1:
			tb, _ := u64()
			wb, _ := u64()
			win, err := u64()
			if err != nil {
				return nil, err
			}
			s.T, s.W, s.Window = math.Float64frombits(tb), math.Float64frombits(wb), int(int64(win))
		case tag == 0 && len(out) > 0:
			p := out[len(out)-1]
			s.T, s.W, s.Window = p.T, p.W, p.Window
		default:
			return nil, fmt.Errorf("period tag %d at sample %d", tag, len(out))
		}
		m, err := u64()
		if err != nil {
			return nil, err
		}
		s.M = math.Float64frombits(m)
		out = append(out, s)
	}
	return out, nil
}

// sameBits reports whether two sample lists are equal field by field,
// floats compared by bit pattern.
func sameBits(a, b []core.Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Metric != y.Metric || x.Window != y.Window ||
			math.Float64bits(x.T) != math.Float64bits(y.T) ||
			math.Float64bits(x.W) != math.Float64bits(y.W) ||
			math.Float64bits(x.M) != math.Float64bits(y.M) {
			return false
		}
	}
	return true
}

// TestWorkloadKeyStream checks the buffered, numbered hash against the
// plainly written stream, and that the stream decodes back to the very
// samples it was written from, on the cases that stress the numbering's
// guess, the buffer and the period tag.
func TestWorkloadKeyStream(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0x7ff8000000000002)
	long := strings.Repeat("long.metric", 1000) // over the 4 KiB buffer
	period := func(metrics []string, t, w float64, win int) []core.Sample {
		var out []core.Sample
		for i, m := range metrics {
			out = append(out, core.Sample{Metric: m, T: t, W: w, M: float64(i + 1), Window: win})
		}
		return out
	}
	cases := map[string][]core.Sample{
		"empty":    nil,
		"workload": testutil.Workload(3),
		"interleaved and returning": append(append(append(
			period([]string{"a", "b", "a", "c", "b"}, 1, 2, 1),
			period([]string{"c", "a", "d"}, 1, 2, 2)...),
			period([]string{"d", "d", "e"}, 3, 4, 3)...),
			period([]string{"b", "a", "e", "c"}, 3, 4, 9)...),
		"cloned names": {
			{Metric: "x.loads", T: 1, W: 1, M: 1},
			{Metric: strings.Clone("x.loads"), T: 1, W: 1, M: 2},
			{Metric: "y.stores", T: 1, W: 1, M: 3},
			{Metric: strings.Clone("x.loads"), T: 1, W: 1, M: 4},
			{Metric: strings.Clone("y.stores"), T: 1, W: 1, M: 5},
		},
		"long name": append(append(period([]string{"a", long, "b"}, 1, 1, 1),
			period([]string{long, "a"}, 1, 1, 2)...), period([]string{"b", long}, 2, 2, 2)...),
		"signed zeros": append(append(append(period([]string{"a", "b"}, 0, 0, 1),
			period([]string{"a", "b"}, negZero, 0, 1)...),
			period([]string{"a", "b"}, negZero, negZero, 1)...),
			period([]string{"a", "b"}, 0, negZero, 1)...),
		"NaN payloads": append(append(append(period([]string{"a", "b"}, nan1, 1, 1),
			period([]string{"a"}, nan2, 1, 1)...),
			period([]string{"a"}, 1, nan1, 1)...),
			period([]string{"a", "b"}, 1, nan2, 1)...),
		"window only": append(append(period([]string{"a", "b"}, 5, 6, 1),
			period([]string{"a", "b"}, 5, 6, 2)...), period([]string{"a", "b"}, 5, 6, -2)...),
	}
	// Many records, so the buffer flushes between them.
	var many []core.Sample
	for win := 0; win < 200; win++ {
		many = append(many, period([]string{"p", "q", fmt.Sprint("r", win%7), "s"}, float64(win/3), 7, win)...)
	}
	cases["many"] = many

	for name, samples := range cases {
		t.Run(name, func(t *testing.T) {
			stream := refKeyStream(samples)
			sum := sha256.Sum256(stream)
			if got := WorkloadKey(samples); got != string(sum[:]) {
				t.Fatalf("WorkloadKey = %x, want SHA-256 of the reference stream %x", got, sum)
			}
			back, err := readKeyStream(stream)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(back, samples) {
				t.Fatalf("the stream decodes to %v, want %v", back, samples)
			}
		})
	}
}

// TestWorkloadKeyDistinguishes checks keys that must differ: samples that
// differ only in a zero's sign, a NaN's payload, a window, a name, or
// where one name ends and the next begins.
func TestWorkloadKeyDistinguishes(t *testing.T) {
	base := []core.Sample{{Metric: "a", T: 0, W: 2, M: 3, Window: 1}, {Metric: "b", T: 0, W: 2, M: 4, Window: 1}}
	variants := map[string]func(s []core.Sample){
		"-0 T":          func(s []core.Sample) { s[1].T = math.Copysign(0, -1) },
		"NaN payload":   func(s []core.Sample) { s[0].W, s[1].W = math.NaN(), math.Float64frombits(0x7ff8000000000001) },
		"window":        func(s []core.Sample) { s[1].Window = 2 },
		"renamed":       func(s []core.Sample) { s[1].Metric = "a" },
		"name boundary": func(s []core.Sample) { s[0].Metric, s[1].Metric = "ab", "" },
	}
	seen := map[string]string{WorkloadKey(base): "base"}
	for name, mutate := range variants {
		s := append([]core.Sample(nil), base...)
		mutate(s)
		k := WorkloadKey(s)
		if other, ok := seen[k]; ok {
			t.Errorf("%s and %s share a key", name, other)
		}
		seen[k] = name
	}
}

// TestWorkloadKeyPoolBounded keys a body of tens of thousands of distinct
// metric names and checks that the pooled scratch does not keep a table
// of that size: after one collection, which moves pooled objects to the
// pool's victim cache without freeing them, the live heap must be back
// near where it started.
func TestWorkloadKeyPoolBounded(t *testing.T) {
	const distinct = 50_000
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	WorkloadKey(testutil.Samples()) // a warm, ordinary-sized numbering in the pool
	before := heap()
	samples := make([]core.Sample, distinct)
	for i := range samples {
		samples[i] = core.Sample{Metric: fmt.Sprintf("hostile.event.%08d", i), T: 1, W: 1, M: 1}
	}
	WorkloadKey(samples)
	samples = nil
	after := heap()
	t.Logf("live heap %d -> %d bytes after keying %d distinct names", before, after, distinct)
	if after > before+512<<10 {
		t.Fatalf("live heap grew by %d bytes after keying %d distinct names: the pool kept their table",
			after-before, distinct)
	}
}
