package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/randx"
)

// Router tuning. LoadFactor 1.25 is the classic bounded-load
// constant; two retries give every request three candidate replicas,
// enough to survive one dead and one degraded replica on the same
// arc; two consecutive probe or transport failures mark a replica
// Down. DefaultMaxRetries and probeFailures are fixed; the others are
// Config defaults.
const (
	DefaultLoadFactor    = 1.25
	DefaultMaxRetries    = 2
	DefaultProbeInterval = 2 * time.Second
	probeFailures        = 2
)

// Config parameterizes a Router. Backends and nothing else is
// required; zero fields take the defaults above.
type Config struct {
	// Backends are the replicas, one per varserve process (or sim
	// fake). IDs must be unique.
	Backends []Backend
	// Policy ranks forwarding candidates (default and only
	// implementation CacheAffinity).
	Policy Policy
	// LoadFactor bounds ownership: no replica owns more than
	// ceil(LoadFactor x keys/alive) cells (default 1.25).
	LoadFactor float64
	// ProbeInterval is Run's health-probe cadence (default 2s).
	ProbeInterval time.Duration
	// Clock is the router's time source (default randx.SystemClock;
	// the sim installs its shared virtual clock).
	Clock randx.Clock
	// Tracer, when set, roots one span per routed request.
	Tracer *obs.Tracer
	// Metrics, when set, receives router and per-replica instruments
	// under the "cluster." scope.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Policy == nil {
		c.Policy = CacheAffinity{}
	}
	if c.LoadFactor < 1 {
		c.LoadFactor = DefaultLoadFactor
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.Clock == nil {
		c.Clock = randx.SystemClock
	}
	return c
}

// Router is the sharded serving tier's brain: it owns the ring, the
// bounded-load owner table, per-replica health, and the forwarding
// loop with retries. Safe for concurrent use.
type Router struct {
	cfg   Config
	ring  *Ring
	clock randx.Clock

	replicas map[string]*replica
	ids      []string // sorted

	mu     sync.Mutex
	owners map[string]string // key -> replica ID
	counts map[string]int    // replica ID -> owned keys

	remaps    atomic.Uint64
	failbacks atomic.Uint64

	requests *obs.Counter
	retries  *obs.Counter
	noroute  *obs.Counter
}

// New builds a router over the backends. It starts with every replica
// assumed Ready; the first probe pass corrects that, so callers that
// cannot afford optimistic routing should ProbeAll before serving.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends")
	}
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:      cfg,
		clock:    cfg.Clock,
		replicas: make(map[string]*replica, len(cfg.Backends)),
		owners:   make(map[string]string),
		counts:   make(map[string]int),
	}
	for _, b := range cfg.Backends {
		id := b.ID()
		if id == "" {
			return nil, fmt.Errorf("cluster: backend with empty ID")
		}
		if _, dup := r.replicas[id]; dup {
			return nil, fmt.Errorf("cluster: duplicate backend ID %q", id)
		}
		rep := &replica{backend: b, id: id}
		rep.state.Store(int32(Ready))
		r.replicas[id] = rep
		r.ids = append(r.ids, id)
	}
	sort.Strings(r.ids)
	r.ring = NewRing(r.ids)
	scope := cfg.Metrics.Scope("cluster.")
	r.requests = scope.Counter("requests")
	r.retries = scope.Counter("retries")
	r.noroute = scope.Counter("no_route")
	if cfg.Metrics != nil {
		for _, rep := range r.replicas {
			rep.bindMetrics(scope.Scope("replica." + rep.id + "."))
		}
	}
	return r, nil
}

// Ring exposes the router's ring (for status and tests).
func (r *Router) Ring() *Ring { return r.ring }

// view snapshots health and the key's ownership for one routing
// decision.
func (r *Router) view(key string) View {
	v := View{Sequence: r.ids, States: make(map[string]State, len(r.ids))}
	for _, id := range r.ids {
		v.States[id] = r.replicas[id].State()
	}
	if key != "" {
		v.Owner = r.ownerFor(key, v)
		v.Sequence = r.ring.Sequence(key)
	}
	return v
}

// ownerFor resolves (assigning if needed) the key's owner under the
// bounded-load cap. The table is sticky: an assignment only changes
// when its replica goes Down (minimal remap) or when fail-back hands a
// recovered replica its ring-owned keys.
func (r *Router) ownerFor(key string, v View) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.owners[key]; ok {
		return id
	}
	alive := 0
	for _, id := range r.ids {
		if v.Alive(id) {
			alive++
		}
	}
	if alive == 0 {
		return ""
	}
	cap_ := BoundedCap(r.cfg.LoadFactor, len(r.owners)+1, alive)
	var fallback string
	for _, id := range r.ring.Sequence(key) {
		if !v.Alive(id) {
			continue
		}
		if fallback == "" {
			fallback = id
		}
		if r.counts[id] < cap_ {
			r.assignLocked(key, id)
			return id
		}
	}
	// Every live replica is at cap (possible transiently when most of
	// the fleet is down): fall back to the first live one rather than
	// refusing the key.
	if fallback != "" {
		r.assignLocked(key, fallback)
	}
	return fallback
}

func (r *Router) assignLocked(key, id string) {
	r.owners[key] = id
	r.counts[id]++
}

// setState applies a health transition and its ownership consequences:
// a replica going Down sheds every key it owned (they reassign on next
// touch — only its keys move), and a replica recovering from Down
// pulls back exactly the keys whose pure ring owner it is.
func (r *Router) setState(rep *replica, next State) {
	prev := State(rep.state.Swap(int32(next)))
	if prev == next {
		return
	}
	rep.stateGauge.get().Set(float64(next))
	if next == Down {
		r.shedOwned(rep.id)
		return
	}
	if prev == Down {
		r.failBack(rep.id)
	}
}

// shedOwned drops every key the dead replica owned; they reassign to
// live replicas on next touch, so only its keys move.
func (r *Router) shedOwned(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for key, owner := range r.owners {
		if owner == id {
			delete(r.owners, key)
			r.remaps.Add(1)
		}
	}
	r.counts[id] = 0
}

// failBack releases exactly the keys whose pure ring owner is the
// recovered replica, so they return home without disturbing anything
// else.
func (r *Router) failBack(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for key, owner := range r.owners {
		if owner != id && r.ring.Owner(key) == id {
			delete(r.owners, key)
			if r.counts[owner] > 0 {
				r.counts[owner]--
			}
			r.failbacks.Add(1)
		}
	}
}

// retryableStatus reports whether an HTTP status is safe to fail over:
// the replica refused or could not complete the request without
// consuming it (502/503/504). 4xx and 500 are returned to the caller
// as-is — they would fail identically everywhere.
func retryableStatus(status int) bool {
	return status == http.StatusBadGateway ||
		status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout
}

// Do routes one request: candidates from the policy, forwarded in turn
// with at most DefaultMaxRetries failovers. The returned error is
// non-nil only when no replica produced a response.
func (r *Router) Do(ctx context.Context, req Request) (Response, error) {
	var span *obs.Span
	if r.cfg.Tracer != nil {
		ctx, span = r.cfg.Tracer.Start(ctx, "cluster.route")
	} else {
		ctx, span = obs.Start(ctx, "cluster.route")
	}
	defer span.End()
	span.SetAttr("path", req.Path)
	if req.Key != "" {
		span.SetAttr("key", req.Key)
	}
	r.requests.Inc()

	v := r.view(req.Key)
	if v.Owner != "" {
		span.SetAttr("owner", v.Owner)
	}
	candidates := r.cfg.Policy.Candidates(req.Key, v)
	if len(candidates) == 0 {
		r.noroute.Inc()
		span.SetAttr("error", "no live replica")
		return Response{}, fmt.Errorf("cluster: no live replica for %s %s", req.Method, req.Path)
	}
	if max := 1 + DefaultMaxRetries; len(candidates) > max {
		candidates = candidates[:max]
	}

	var lastResp Response
	var lastErr error
	haveResp := false
	for i, id := range candidates {
		rep := r.replicas[id]
		if rep == nil || rep.State() == Down {
			continue
		}
		if i > 0 {
			r.retries.Inc()
		}
		resp, err := r.attempt(ctx, rep, req)
		if err == nil && !retryableStatus(resp.Status) {
			span.SetAttr("replica", rep.id)
			span.SetAttr("attempts", i+1)
			return resp, nil
		}
		if err == nil {
			lastResp, haveResp = resp, true
		} else {
			lastErr = err
		}
	}
	span.SetAttr("attempts", len(candidates))
	if haveResp {
		span.SetAttr("status", lastResp.Status)
		return lastResp, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: no routable replica for %s %s", req.Method, req.Path)
	}
	span.SetAttr("error", lastErr.Error())
	return Response{}, fmt.Errorf("cluster: all candidates failed: %w", lastErr)
}

// attempt forwards to one replica, maintaining its load and health
// accounting. A transport error counts toward the Down threshold so a
// crashed replica stops receiving traffic before the next probe pass.
func (r *Router) attempt(ctx context.Context, rep *replica, req Request) (Response, error) {
	rep.inFlight.Add(1)
	start := r.clock()
	resp, err := rep.backend.Do(ctx, req)
	rep.latency.get().ObserveMS(float64(r.clock().Sub(start)) / float64(time.Millisecond))
	rep.inFlight.Add(-1)
	if err != nil {
		rep.failed.Add(1)
		rep.failures.get().Inc()
		if int(rep.probeFails.Add(1)) >= probeFailures {
			r.setState(rep, Down)
		}
		return Response{}, fmt.Errorf("cluster: replica %s: %w", rep.id, err)
	}
	rep.probeFails.Store(0)
	rep.served.Add(1)
	rep.requests.get().Inc()
	return resp, nil
}

// probeOne applies one health observation to a replica.
func (r *Router) probeOne(ctx context.Context, rep *replica) {
	p, err := rep.backend.Probe(ctx)
	if err != nil {
		rep.probeFailures.get().Inc()
		if int(rep.probeFails.Add(1)) >= probeFailures {
			r.setState(rep, Down)
		}
		return
	}
	rep.probeFails.Store(0)
	rep.breakers.Store(int32(p.BreakersOpen))
	rep.drifted.Store(int32(p.Drifted))
	switch {
	case !p.Ready:
		r.setState(rep, Down)
	case p.Status == "degraded" || p.BreakersOpen > 0 || p.Drifted > 0:
		r.setState(rep, Degraded)
	default:
		r.setState(rep, Ready)
	}
}

// ProbeAll probes every replica once, synchronously, in sorted ID
// order — deterministic, which is why the sim drives health through it
// directly.
func (r *Router) ProbeAll(ctx context.Context) {
	for _, id := range r.ids {
		r.probeOne(ctx, r.replicas[id])
	}
}

// Run probes on the configured cadence until ctx is canceled. Callers
// own the goroutine (cmd/varroute runs it alongside its HTTP server).
func (r *Router) Run(ctx context.Context) {
	ticker := time.NewTicker(r.cfg.ProbeInterval)
	defer ticker.Stop()
	r.ProbeAll(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			r.ProbeAll(ctx)
		}
	}
}

// ReplicaStatus is one replica's row in the cluster status payload.
type ReplicaStatus struct {
	ID           string `json:"id"`
	State        string `json:"state"`
	InFlight     int64  `json:"in_flight"`
	Served       uint64 `json:"served"`
	Failed       uint64 `json:"failed"`
	BreakersOpen int    `json:"breakers_open,omitempty"`
	Drifted      int    `json:"drifted,omitempty"`
	OwnedKeys    int    `json:"owned_keys"`
}

// Status is the router's self-description (GET /v1/cluster/status).
type Status struct {
	Policy    string          `json:"policy"`
	Replicas  []ReplicaStatus `json:"replicas"`
	Keys      int             `json:"keys"`
	Remaps    uint64          `json:"remaps"`
	Failbacks uint64          `json:"failbacks"`
}

// Snapshot captures the router's current state, replicas sorted by ID.
func (r *Router) Snapshot() Status {
	keys, counts := r.tableSnapshot()
	st := Status{
		Policy:    r.cfg.Policy.Name(),
		Keys:      keys,
		Remaps:    r.remaps.Load(),
		Failbacks: r.failbacks.Load(),
	}
	for _, id := range r.ids {
		rep := r.replicas[id]
		st.Replicas = append(st.Replicas, ReplicaStatus{
			ID:           id,
			State:        rep.State().String(),
			InFlight:     rep.inFlight.Load(),
			Served:       rep.served.Load(),
			Failed:       rep.failed.Load(),
			BreakersOpen: int(rep.breakers.Load()),
			Drifted:      int(rep.drifted.Load()),
			OwnedKeys:    counts[id],
		})
	}
	return st
}

// tableSnapshot copies the owner-table size and per-replica counts.
func (r *Router) tableSnapshot() (int, map[string]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	counts := make(map[string]int, len(r.counts))
	for id, n := range r.counts {
		counts[id] = n
	}
	return len(r.owners), counts
}

// Owners returns a copy of the owner table (tests and status).
func (r *Router) Owners() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]string, len(r.owners))
	for k, v := range r.owners {
		out[k] = v
	}
	return out
}

// OwnerCounts returns owned-key counts per replica ID.
func (r *Router) OwnerCounts() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int, len(r.counts))
	for id, n := range r.counts {
		out[id] = n
	}
	return out
}
