package cluster

import (
	"sort"
	"strconv"
)

// The ring is classic consistent hashing with virtual nodes: each shard
// contributes VNodes points at fnv64a(name + "#" + i), and a key routes
// to the first point clockwise from fnv64a(key). Hashing shard *names*
// keeps placement stable across address changes and across membership
// changes elsewhere on the ring: adding or removing one shard moves only
// the keys in that shard's arcs. Bounded load (Google's
// consistent-hashing-with-bounded-loads) is applied by the walk's
// caller: the router skips a candidate whose in-flight count exceeds
// its fair share times the configured load factor, spilling the key to
// the next successor instead of hot-spotting.

// fnv64a is FNV-1a over a ring key: a shard name's vnode label or a
// request's placement key (engine.WorkloadKey, itself a SHA-256 digest);
// inlined to keep the ring dependency-free.
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// ringHash is fnv64a finished with murmur3's fmix64. Raw FNV-1a of
// short, similar strings ("shard-1#17", workload keys) clusters in the
// high bits — the bits that decide ring position — and a clustered
// ring hands one shard half the keyspace. The finalizer's two
// xor-shift-multiply rounds avalanche every input bit across the word,
// restoring the uniform arc lengths consistent hashing assumes.
func ringHash(s string) uint64 {
	h := fnv64a(s)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ringPoint is one virtual node: a position and the shard index owning it.
type ringPoint struct {
	hash  uint64
	shard int
}

// ring is an immutable consistent-hash ring over shard indices.
type ring struct {
	points []ringPoint // sorted by hash
	shards int
}

// buildRing places vnodes points per shard name.
func buildRing(names []string, vnodes int) *ring {
	r := &ring{
		points: make([]ringPoint, 0, len(names)*vnodes),
		shards: len(names),
	}
	for i, name := range names {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  ringHash(name + "#" + strconv.Itoa(v)),
				shard: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		pa, pb := r.points[a], r.points[b]
		if pa.hash != pb.hash {
			return pa.hash < pb.hash
		}
		// Tie-break on shard index so the order is deterministic even in
		// the astronomically unlikely event of a vnode hash collision.
		return pa.shard < pb.shard
	})
	return r
}

// walk returns every shard index exactly once, in ring order starting
// from the key's position: element 0 is the key's home shard, element 1
// its first failover target, and so on. The caller filters by health
// and load.
func (r *ring) walk(key string) []int {
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	order := make([]int, 0, r.shards)
	seen := make([]bool, r.shards)
	for i := 0; i < len(r.points) && len(order) < r.shards; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			order = append(order, p.shard)
		}
	}
	return order
}
