package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"sync"

	"spire/internal/core"
)

// keyHasher is one SHA-256 state and the buffer it is fed from, which
// also takes the digest; both are reused across calls.
type keyHasher struct {
	h   hash.Hash
	buf []byte
}

var keyHashers = sync.Pool{New: func() any {
	return &keyHasher{h: sha256.New(), buf: make([]byte, 0, 4096)}
}}

// maxKeyRecord bounds one sample's record in the key stream, name bytes
// aside: a uvarint ID and name length, the period tag and T, W, window
// and M.
const maxKeyRecord = binary.MaxVarintLen32 + binary.MaxVarintLen64 + 1 + 4*8

// workloadKey content-hashes a sample set by its field values directly —
// no JSON round-trip — so two sample slices with identical values share a
// key no matter where they came from. The digest is SHA-256 of a compact
// stream with one record per sample:
//
//	uvarint(id) [uvarint(len(name)) name]  tag [T W window]  M
//
// id is the metric's first-appearance number (core.MetricNumbering); the
// name follows only on its first appearance. tag 0 says T, W and window
// equal the previous sample's, bit for bit; tag 1 says they follow, and
// the first record always uses it. Floats are written as their IEEE bits
// (NaNs and ±0 hash apart) and windows as int64, each little-endian. The
// stream decodes back to the samples, so the key stays injective while a
// perf-stat request, whose events share their interval's T and W, hashes
// about ten bytes per sample. The stream is written in one pass through a
// pooled buffer, flushed whenever a record might not fit.
func workloadKey(samples []core.Sample) string {
	kh := keyHashers.Get().(*keyHasher)
	defer keyHashers.Put(kh)
	nu := core.NewMetricNumbering()
	defer nu.Release()
	kh.h.Reset()
	b := kh.buf[:0]
	var t, w uint64
	var win int
	for i := range samples {
		s := &samples[i]
		if len(b)+len(s.Metric)+maxKeyRecord > cap(b) {
			kh.h.Write(b)
			b = b[:0]
		}
		id, fresh := nu.ID(s.Metric)
		b = binary.AppendUvarint(b, uint64(id))
		if fresh {
			b = binary.AppendUvarint(b, uint64(len(s.Metric)))
			b = append(b, s.Metric...) // a name longer than the buffer grows a transient copy
		}
		if st, sw := math.Float64bits(s.T), math.Float64bits(s.W); i == 0 || st != t || sw != w || s.Window != win {
			t, w, win = st, sw, s.Window
			b = append(b, 1)
			b = binary.LittleEndian.AppendUint64(b, t)
			b = binary.LittleEndian.AppendUint64(b, w)
			b = binary.LittleEndian.AppendUint64(b, uint64(int64(win)))
		} else {
			b = append(b, 0)
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.M))
	}
	kh.h.Write(b)
	return string(kh.h.Sum(kh.buf[:0]))
}
