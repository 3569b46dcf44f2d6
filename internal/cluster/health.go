package cluster

import (
	"sync/atomic"

	"repro/internal/obs"
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

	// The replica's instruments under "cluster.replica.<id>.".
	latency       instrument[obs.LatencyHist]
	requests      instrument[obs.Counter]
	failures      instrument[obs.Counter]
	probeFailures instrument[obs.Counter]
	stateGauge    instrument[obs.Gauge]
}

func (r *replica) State() State { return State(r.state.Load()) }

// bindMetrics points the replica's instruments at sc, the replica's
// scope in the router's registry.
func (r *replica) bindMetrics(sc obs.Scope) {
	r.latency.bind(sc, "latency", obs.Scope.Histogram)
	r.requests.bind(sc, "requests", obs.Scope.Counter)
	r.failures.bind(sc, "failures", obs.Scope.Counter)
	r.probeFailures.bind(sc, "probe_failures", obs.Scope.Counter)
	r.stateGauge.bind(sc, "state", obs.Scope.Gauge)
}

// instrument is one per-replica metric, resolved from the registry on
// its first use and held from then on: the forwarding hop pays one
// atomic load, not a scoped-name concatenation and a registry lookup,
// and a name still appears in /v1/metrics only once it has been
// touched. An unbound instrument (no registry) is nil, which every obs
// instrument accepts as a no-op.
type instrument[T any] struct {
	p    atomic.Pointer[T]
	sc   obs.Scope
	name string
	mint func(obs.Scope, string) *T
}

func (in *instrument[T]) bind(sc obs.Scope, name string, mint func(obs.Scope, string) *T) {
	in.sc, in.name, in.mint = sc, name, mint
}

// get returns the instrument, resolving it on first use. Concurrent
// first uses resolve the same registry entry, so either store is right.
func (in *instrument[T]) get() *T {
	if p := in.p.Load(); p != nil || in.mint == nil {
		return p
	}
	p := in.mint(in.sc, in.name)
	in.p.Store(p)
	return p
}

// View is the immutable health-and-ownership snapshot a Policy ranks
// candidates from, built once per routed request.
type View struct {
	// Owner is the routed key's current table owner ("" when the key is
	// unkeyed or not yet assigned).
	Owner string
	// Sequence is the key's full ring fallback order (owner first). For
	// unkeyed requests it is the sorted replica list.
	Sequence []string
	// States maps replica ID to health.
	States map[string]State
}

// Alive reports whether id is routable at all (Ready or Degraded).
func (v View) Alive(id string) bool {
	s, ok := v.States[id]
	return ok && s != Down
}

// readyThenDegraded orders ids: Ready replicas first (preserving the
// given order), then Degraded, Down dropped.
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
