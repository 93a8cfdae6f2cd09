package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"spire/internal/testutil"
)

// TestWorkloadKeyDigest pins the workload key's digest. The router's
// ring places workloads by this key, so a change to the hashed byte
// stream would move every workload to a different shard.
func TestWorkloadKeyDigest(t *testing.T) {
	const want = "ebfa75aca2a0086697e62e742884aa64d1a0e8eb0686128ce002ac3f311376f1"
	if got := hex.EncodeToString([]byte(WorkloadKey(testutil.Samples()))); got != want {
		t.Fatalf("WorkloadKey(testutil.Samples()) = %s, want %s", got, want)
	}
}

// TestWorkloadKeyStream checks the buffered hash against the byte stream
// it must hash, written field by field, across buffer flushes and a
// metric name longer than the buffer.
func TestWorkloadKeyStream(t *testing.T) {
	samples := testutil.Workload(3)
	samples[7].Metric = strings.Repeat("long.metric", 1000)
	samples[8].T = math.NaN()
	h := sha256.New()
	u64 := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for _, s := range samples {
		u64(uint64(len(s.Metric)))
		h.Write([]byte(s.Metric))
		u64(math.Float64bits(s.T))
		u64(math.Float64bits(s.W))
		u64(math.Float64bits(s.M))
		u64(uint64(int64(s.Window)))
	}
	if got, want := WorkloadKey(samples), string(h.Sum(nil)); got != want {
		t.Fatalf("WorkloadKey = %x, want %x", got, want)
	}
}
