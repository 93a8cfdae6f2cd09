package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"spire/internal/core"
)

// workloadKey content-hashes a sample set by its field values directly —
// no JSON round-trip — so two sample slices with identical values share a
// key no matter where they came from. Field and length framing make the
// encoding injective; NaNs hash by bit pattern.
func workloadKey(samples []core.Sample) string {
	h := sha256.New()
	var buf [8]byte
	for _, s := range samples {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s.Metric)))
		h.Write(buf[:])
		h.Write([]byte(s.Metric))
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s.T))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s.W))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s.M))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(s.Window)))
		h.Write(buf[:])
	}
	return string(h.Sum(nil))
}
