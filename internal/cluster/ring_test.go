package cluster

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/modelstore"
	"repro/internal/randx"
)

// testKeys builds n dataset-style keys via the exported modelstore
// derivation, so the property tests exercise the exact byte shapes the
// router will hash in production.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		switch i % 3 {
		case 0:
			keys[i] = modelstore.DatasetKey(1, fmt.Sprintf("sys%04d", i), "")
		case 1:
			keys[i] = modelstore.DatasetKey(2, fmt.Sprintf("sys%04d", i), fmt.Sprintf("dst%02d", i%11))
		default:
			keys[i] = modelstore.DatasetKey(2, fmt.Sprintf("alt%04d", i), fmt.Sprintf("sys%02d", i%7))
		}
	}
	return keys
}

func replicaIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("replica-%d", i)
	}
	return ids
}

// TestAssignBoundedBalance pins the headline distribution invariant:
// 1k keys over 8 replicas stay within the bounded-load cap
// ceil(1.25 x 1000/8) = 157, and every replica gets a non-trivial
// share.
func TestAssignBoundedBalance(t *testing.T) {
	keys := testKeys(1000)
	ring := NewRing(replicaIDs(8))
	assign, err := AssignBounded(ring, keys, 1.25)
	if err != nil {
		t.Fatalf("AssignBounded: %v", err)
	}
	if len(assign) != len(keys) {
		t.Fatalf("assigned %d keys, want %d", len(assign), len(keys))
	}
	counts := map[string]int{}
	for _, id := range assign {
		counts[id]++
	}
	cap_ := BoundedCap(1.25, len(keys), ring.Len())
	if cap_ != 157 {
		t.Fatalf("BoundedCap(1.25, 1000, 8) = %d, want 157", cap_)
	}
	for _, id := range ring.IDs() {
		c := counts[id]
		if c > cap_ {
			t.Errorf("replica %s holds %d keys, above cap %d", id, c, cap_)
		}
		// Bounded load guarantees the ceiling, not a floor, but with 128
		// vnodes no replica should be starved outright.
		if c < 50 {
			t.Errorf("replica %s holds only %d of 1000 keys", id, c)
		}
	}
}

// TestAssignBoundedOrderIndependent pins that assignment is a pure
// function of the key set: shuffled input orders produce the identical
// map.
func TestAssignBoundedOrderIndependent(t *testing.T) {
	keys := testKeys(400)
	ring := NewRing(replicaIDs(5))
	want, err := AssignBounded(ring, keys, 1.25)
	if err != nil {
		t.Fatalf("AssignBounded: %v", err)
	}
	rng := randx.New(42)
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]string(nil), keys...)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := rng.IntN(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		got, err := AssignBounded(ring, shuffled, 1.25)
		if err != nil {
			t.Fatalf("AssignBounded(shuffle %d): %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shuffle %d changed the assignment", trial)
		}
	}
}

// TestRingDeterministicAcrossConstruction pins that rings built from
// permuted (and duplicated) replica ID lists agree on every key and on
// the fallback sequence.
func TestRingDeterministicAcrossConstruction(t *testing.T) {
	ids := replicaIDs(6)
	ring := NewRing(ids)
	perm := []string{ids[3], ids[0], ids[5], ids[1], ids[4], ids[2], ids[3]}
	ring2 := NewRing(perm)
	if !reflect.DeepEqual(ring.IDs(), ring2.IDs()) {
		t.Fatalf("IDs diverge: %v vs %v", ring.IDs(), ring2.IDs())
	}
	for _, key := range testKeys(300) {
		if a, b := ring.Owner(key), ring2.Owner(key); a != b {
			t.Fatalf("owner of %q diverges: %s vs %s", key, a, b)
		}
		if a, b := ring.Sequence(key), ring2.Sequence(key); !reflect.DeepEqual(a, b) {
			t.Fatalf("sequence of %q diverges: %v vs %v", key, a, b)
		}
	}
}

// TestRingMinimalRemapOnRemove pins the monotone minimal-remap
// property: removing one replica moves exactly the keys it owned, and
// every surviving key keeps its owner.
func TestRingMinimalRemapOnRemove(t *testing.T) {
	keys := testKeys(1000)
	ring := NewRing(replicaIDs(8))
	victim := "replica-3"
	after := ring.Without(victim)
	moved := 0
	for _, key := range keys {
		before := ring.Owner(key)
		now := after.Owner(key)
		if before == victim {
			moved++
			if now == victim {
				t.Fatalf("key %q still owned by removed replica", key)
			}
			continue
		}
		if now != before {
			t.Fatalf("key %q moved %s -> %s although %s did not own it", key, before, now, victim)
		}
	}
	if moved == 0 {
		t.Fatal("victim owned no keys; test is vacuous")
	}
}

// TestRingMinimalRemapOnAdd pins the other direction: adding a replica
// only pulls keys onto the newcomer.
func TestRingMinimalRemapOnAdd(t *testing.T) {
	keys := testKeys(1000)
	ring := NewRing(replicaIDs(7))
	after := ring.With("replica-7")
	gained := 0
	for _, key := range keys {
		before := ring.Owner(key)
		now := after.Owner(key)
		if now == before {
			continue
		}
		if now != "replica-7" {
			t.Fatalf("key %q moved %s -> %s instead of onto the new replica", key, before, now)
		}
		gained++
	}
	if gained == 0 {
		t.Fatal("new replica gained no keys; test is vacuous")
	}
}

// TestRingRemoveAddRoundTrips pins that remove-then-add restores the
// original ownership exactly (the ring is memoryless).
func TestRingRemoveAddRoundTrips(t *testing.T) {
	ring := NewRing(replicaIDs(5))
	round := ring.Without("replica-2").With("replica-2")
	for _, key := range testKeys(300) {
		if a, b := ring.Owner(key), round.Owner(key); a != b {
			t.Fatalf("round trip changed owner of %q: %s -> %s", key, a, b)
		}
	}
}

// TestRingSequenceCoversAllReplicas pins that the fallback chain
// starts at the owner and visits every replica exactly once.
func TestRingSequenceCoversAllReplicas(t *testing.T) {
	ring := NewRing(replicaIDs(6))
	for _, key := range testKeys(100) {
		seq := ring.Sequence(key)
		if len(seq) != ring.Len() {
			t.Fatalf("sequence for %q has %d entries, want %d", key, len(seq), ring.Len())
		}
		if seq[0] != ring.Owner(key) {
			t.Fatalf("sequence for %q starts at %s, owner is %s", key, seq[0], ring.Owner(key))
		}
		seen := map[string]bool{}
		for _, id := range seq {
			if seen[id] {
				t.Fatalf("sequence for %q repeats %s", key, id)
			}
			seen[id] = true
		}
	}
}

// TestRingEmptyAndSingle pins the degenerate topologies.
func TestRingEmptyAndSingle(t *testing.T) {
	empty := NewRing(nil)
	if got := empty.Owner("k"); got != "" {
		t.Fatalf("empty ring owner = %q, want empty", got)
	}
	if got := empty.Sequence("k"); got != nil {
		t.Fatalf("empty ring sequence = %v, want nil", got)
	}
	if _, err := AssignBounded(empty, []string{"k"}, 1.25); err == nil {
		t.Fatal("AssignBounded over empty ring did not error")
	}
	solo := NewRing([]string{"only"})
	for _, key := range testKeys(20) {
		if solo.Owner(key) != "only" {
			t.Fatalf("single-replica ring routed %q elsewhere", key)
		}
	}
}

// TestHash64Golden pins the key hash so a hash change (which would
// remap a live fleet) cannot slip through silently.
func TestHash64Golden(t *testing.T) {
	cases := map[string]uint64{
		"":                   0xcbf29ce484222325, // FNV-1a offset basis
		"uc1|sys=intel|dst=": 0xbbdf463d00788be,
		"replica-0#0":        0x4ae75db58bd6b561,
	}
	for s, want := range cases {
		if got := Hash64(s); got != want {
			t.Errorf("Hash64(%q) = %#x, want %#x", s, got, want)
		}
	}
}

// Without returns a derived ring with id removed (the replica-loss
// topology). The surviving replicas' virtual nodes are identical, so
// only keys owned by id resolve differently.
func (r *Ring) Without(id string) *Ring {
	ids := make([]string, 0, len(r.ids))
	for _, x := range r.ids {
		if x != id {
			ids = append(ids, x)
		}
	}
	return NewRing(ids)
}

// With returns a derived ring with id added.
func (r *Ring) With(id string) *Ring {
	return NewRing(append(r.IDs(), id))
}

// AssignBounded assigns every key to a replica by walking its ring
// sequence under the bounded-load cap BoundedCap(factor, len(keys),
// Len()). Keys are placed in canonical (hash, key) order, so the
// result is a pure function of the key SET — independent of input
// order and identical across runs — which is what the distribution
// property tests pin. The router's online owner table is the
// incremental form of this assignment.
func AssignBounded(r *Ring, keys []string, factor float64) (map[string]string, error) {
	if r.Len() == 0 {
		return nil, fmt.Errorf("cluster: assign over an empty ring")
	}
	canon := append([]string(nil), keys...)
	sort.Slice(canon, func(i, j int) bool {
		hi, hj := Hash64(canon[i]), Hash64(canon[j])
		if hi != hj {
			return hi < hj
		}
		return canon[i] < canon[j]
	})
	cap_ := BoundedCap(factor, len(canon), r.Len())
	out := make(map[string]string, len(canon))
	count := make(map[string]int, r.Len())
	for _, key := range canon {
		if _, dup := out[key]; dup {
			continue
		}
		placed := false
		for _, id := range r.Sequence(key) {
			if count[id] < cap_ {
				out[key] = id
				count[id]++
				placed = true
				break
			}
		}
		if !placed {
			// Unreachable: cap x replicas >= keys by construction.
			return nil, fmt.Errorf("cluster: no replica below cap %d for key %q", cap_, key)
		}
	}
	return out, nil
}
