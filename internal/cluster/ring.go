package cluster

import (
	"hash/fnv"
	"math"
	"sort"
	"strconv"
)

// vnodes is the ring's virtual-node count per replica. 128 points per
// replica keeps the pure-hash spread of 1k keys over 8 replicas within
// ~1.3x of the mean; the bounded-load walk tightens that to the
// configured factor.
const vnodes = 128

// Hash64 is the ring's key hash: FNV-1a over the dataset-key bytes.
// It matches the derivation style modelstore and faults use, and is
// pinned by tests — changing it remaps every cell in a fleet.
func Hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// ringPoint is one virtual node: a position on the hash circle owned
// by a replica.
type ringPoint struct {
	hash    uint64
	replica int // index into ids
}

// Ring is an immutable consistent-hash ring: each replica contributes
// vnodes points, keys resolve to the first point clockwise from their
// hash. Immutability is what makes ownership a pure function — two
// rings built from the same replica set agree on every key regardless
// of construction order, so the remap between the rings of two
// topologies is auditable.
type Ring struct {
	ids    []string // sorted replica IDs
	points []ringPoint
}

// NewRing builds a ring over the replica IDs (order-insensitive;
// duplicates collapse).
func NewRing(ids []string) *Ring {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	// Collapse duplicates so a repeated ID cannot double its share.
	uniq := sorted[:0]
	for i, id := range sorted {
		if i == 0 || id != sorted[i-1] {
			uniq = append(uniq, id)
		}
	}
	r := &Ring{ids: uniq, points: make([]ringPoint, 0, len(uniq)*vnodes)}
	for ri, id := range r.ids {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: Hash64(id + "#" + strconv.Itoa(v)), replica: ri})
		}
	}
	// Ties (astronomically rare with 64-bit FNV) break by replica ID so
	// the ring stays a pure function of the replica set.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.ids[r.points[i].replica] < r.ids[r.points[j].replica]
	})
	return r
}

// IDs returns the replica IDs, sorted.
func (r *Ring) IDs() []string { return append([]string(nil), r.ids...) }

// Len returns the replica count.
func (r *Ring) Len() int { return len(r.ids) }

// succ returns the index of the first point clockwise from hash h.
func (r *Ring) succ(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Owner returns the key's pure consistent-hash owner ("" on an empty
// ring): the replica of the first virtual node clockwise from the
// key's hash. Removing a replica moves only the keys it owned;
// adding one moves only keys onto it — the classic minimal-remap
// property, pinned by the ring property tests.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.ids[r.points[r.succ(Hash64(key))].replica]
}

// Sequence returns every replica in ring order starting from the key's
// owner: the deterministic fallback chain a router walks when the
// owner is unhealthy or at capacity. Each replica appears once.
func (r *Ring) Sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.ids))
	seen := make([]bool, len(r.ids))
	for i, n := r.succ(Hash64(key)), 0; n < len(r.points); n++ {
		p := r.points[(i+n)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			out = append(out, r.ids[p.replica])
			if len(out) == len(r.ids) {
				break
			}
		}
	}
	return out
}

// BoundedCap returns the bounded-load ownership cap for nKeys keys
// over nReplicas replicas: ceil(factor x nKeys/nReplicas), never below
// 1. factor <= 1 degenerates to perfect balance.
func BoundedCap(factor float64, nKeys, nReplicas int) int {
	if nReplicas <= 0 {
		return 0
	}
	if factor < 1 {
		factor = 1
	}
	c := int(math.Ceil(factor * float64(nKeys) / float64(nReplicas)))
	if c < 1 {
		c = 1
	}
	return c
}
