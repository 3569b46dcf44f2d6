package cluster

import (
	"sort"
	"sync/atomic"
)

// State is a replica's health as the router tracks it.
type State int32

// The replica health states. Ready replicas take their owned traffic;
// Degraded replicas (open breakers, drifted ingest cells, or a
// degraded /readyz) keep ownership but drain new traffic to ring
// fallbacks; Down replicas (failed probes or draining /readyz) take
// nothing and their keys remap.
const (
	Ready State = iota
	Degraded
	Down
)

// String renders the state for status payloads and metrics.
func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Degraded:
		return "degraded"
	default:
		return "down"
	}
}

// replica is the router's per-backend record. Health and load fields
// are atomics so routing reads never contend with probe writes.
type replica struct {
	backend Backend
	id      string

	state      atomic.Int32 // State
	inFlight   atomic.Int64
	probeFails atomic.Int32 // consecutive failed probes

	// Served/failed tally requests forwarded to this replica; breakers
	// and drifted mirror the last successful probe.
	served   atomic.Uint64
	failed   atomic.Uint64
	breakers atomic.Int32
	drifted  atomic.Int32
}

func (r *replica) State() State { return State(r.state.Load()) }

// View is the immutable health-and-ownership snapshot a Policy ranks
// candidates from. It is built per routed request; all lookups are on
// materialized maps, so policies stay pure functions.
type View struct {
	// Owner is the routed key's current table owner ("" when the key is
	// unkeyed or not yet assigned).
	Owner string
	// Sequence is the key's full ring fallback order (owner first). For
	// unkeyed requests it is the sorted replica list.
	Sequence []string
	// States and InFlight map replica ID to health and live request
	// count.
	States   map[string]State
	InFlight map[string]int64
	// RRTick is a monotone counter the round-robin policy offsets by.
	RRTick uint64
}

// Alive reports whether id is routable at all (Ready or Degraded).
func (v View) Alive(id string) bool {
	s, ok := v.States[id]
	return ok && s != Down
}

// readyThenDegraded orders ids: Ready replicas first (preserving the
// given order), then Degraded, Down dropped. The shared drain rule
// every built-in policy applies.
func readyThenDegraded(ids []string, v View) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		if v.States[id] == Ready {
			out = append(out, id)
		}
	}
	for _, id := range ids {
		if v.States[id] == Degraded {
			out = append(out, id)
		}
	}
	return out
}

// sortedIDs returns the view's replica IDs sorted, the canonical
// iteration order for unkeyed routing.
func (v View) sortedIDs() []string {
	ids := make([]string, 0, len(v.States))
	for id := range v.States {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
