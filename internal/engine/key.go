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

// workloadKey content-hashes a sample set by its field values directly —
// no JSON round-trip — so two sample slices with identical values share a
// key no matter where they came from. Field and length framing make the
// encoding injective; NaNs hash by bit pattern. The stream is written in
// one pass through a pooled buffer, flushed whenever a sample might not fit.
func workloadKey(samples []core.Sample) string {
	kh := keyHashers.Get().(*keyHasher)
	defer keyHashers.Put(kh)
	kh.h.Reset()
	b := kh.buf[:0]
	for i := range samples {
		s := &samples[i]
		if len(b)+len(s.Metric)+40 > cap(b) {
			kh.h.Write(b)
			b = b[:0]
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(len(s.Metric)))
		b = append(b, s.Metric...) // a name longer than the buffer grows a transient copy
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.T))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.W))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.M))
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(s.Window)))
	}
	kh.h.Write(b)
	return string(kh.h.Sum(kh.buf[:0]))
}
