package sim

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/randx"
)

// Clock is the simulation's shared time source: virtual time that
// moves only when the harness advances it. Safe for concurrent use
// (the router's attempt accounting reads it), though the harness
// itself is synchronous.
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// NewClock starts a clock at the epoch of simulation time.
func NewClock() *Clock {
	return &Clock{now: time.Unix(0, 0).UTC()}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AdvanceTo moves the clock forward to t (never backward).
func (c *Clock) AdvanceTo(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

// Fn adapts the clock to the randx.Clock the router consumes.
func (c *Clock) Fn() randx.Clock { return c.Now }

// Window is a half-open interval of simulation time, as offsets from
// the clock epoch.
type Window struct {
	From, To time.Duration
}

func (w Window) contains(epoch, t time.Time) bool {
	off := t.Sub(epoch)
	return off >= w.From && off < w.To
}

// ReplicaConfig scripts one fake replica.
type ReplicaConfig struct {
	// ID is the ring identity.
	ID string
	// ServiceTime is the mean virtual time one request occupies the
	// replica (default 10ms).
	ServiceTime time.Duration
	// JitterFrac scales multiplicative service-time jitter drawn from
	// the scenario's fault stream (0 = none; 0.2 = ±20%).
	JitterFrac float64
	// Outages are windows during which the replica is dead: Do returns
	// transport errors and Probe fails.
	Outages []Window
	// Degraded are windows during which the replica reports a degraded
	// posture (open breakers) while still serving.
	Degraded []Window
}

// Replica is the in-process fake varserve. It implements
// cluster.Backend; all state is virtual-time bookkeeping.
type Replica struct {
	cfg   ReplicaConfig
	clock *Clock
	epoch time.Time
	rng   *randx.RNG

	mu        sync.Mutex
	busyUntil time.Time
	served    map[string]int // key -> requests served
	ingested  map[string]int // key -> measurement batches ingested
	total     int
	lastDone  time.Time
}

// NewReplica builds a fake replica. seed scopes the scenario; jitter
// draws come from faults.StreamRNG(seed, "sim/<id>/latency") so
// replicas' streams are independent and order-insensitive across
// scenarios.
func NewReplica(cfg ReplicaConfig, clock *Clock, seed uint64) *Replica {
	if cfg.ServiceTime <= 0 {
		cfg.ServiceTime = 10 * time.Millisecond
	}
	return &Replica{
		cfg:      cfg,
		clock:    clock,
		epoch:    clock.Now(),
		rng:      faults.StreamRNG(seed, "sim/"+cfg.ID+"/latency"),
		served:   make(map[string]int),
		ingested: make(map[string]int),
	}
}

// ID implements cluster.Backend.
func (r *Replica) ID() string { return r.cfg.ID }

func (r *Replica) down(t time.Time) bool {
	for _, w := range r.cfg.Outages {
		if w.contains(r.epoch, t) {
			return true
		}
	}
	return false
}

func (r *Replica) degraded(t time.Time) bool {
	for _, w := range r.cfg.Degraded {
		if w.contains(r.epoch, t) {
			return true
		}
	}
	return false
}

// Do implements cluster.Backend: occupy the replica for one service
// time in virtual time and answer with our identity, so the harness
// can attribute every response.
func (r *Replica) Do(_ context.Context, req cluster.Request) (cluster.Response, error) {
	now := r.clock.Now()
	if r.down(now) {
		return cluster.Response{}, fmt.Errorf("sim: replica %s is down", r.cfg.ID)
	}
	svc := r.cfg.ServiceTime
	if r.cfg.JitterFrac > 0 {
		svc = time.Duration(float64(svc) * (1 + r.cfg.JitterFrac*(2*r.rng.Float64()-1)))
	}
	done := r.occupy(now, svc, req.Key, strings.HasSuffix(req.Path, "/measurements"))
	body := fmt.Sprintf(`{"replica":%q,"done_ms":%d}`, r.cfg.ID, done.Sub(r.epoch)/time.Millisecond)
	return cluster.Response{Status: http.StatusOK, Body: []byte(body)}, nil
}

// occupy books one request onto the replica's serial virtual-time
// queue and returns its completion time.
func (r *Replica) occupy(now time.Time, svc time.Duration, key string, ingest bool) time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := now
	if r.busyUntil.After(start) {
		start = r.busyUntil
	}
	done := start.Add(svc)
	r.busyUntil = done
	r.lastDone = done
	r.served[key]++
	if ingest {
		r.ingested[key]++
	}
	r.total++
	return done
}

// Probe implements cluster.Backend.
func (r *Replica) Probe(context.Context) (cluster.Probe, error) {
	now := r.clock.Now()
	if r.down(now) {
		return cluster.Probe{}, fmt.Errorf("sim: replica %s is down", r.cfg.ID)
	}
	if r.degraded(now) {
		return cluster.Probe{Ready: true, Status: "degraded", BreakersOpen: 1}, nil
	}
	return cluster.Probe{Ready: true, Status: "ok"}, nil
}

// ServedKeys returns a copy of the per-key serve counts.
func (r *Replica) ServedKeys() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int, len(r.served))
	for k, v := range r.served {
		out[k] = v
	}
	return out
}

// Ingested returns a copy of the per-key ingest-batch counts.
func (r *Replica) Ingested() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int, len(r.ingested))
	for k, v := range r.ingested {
		out[k] = v
	}
	return out
}

// Busy returns the replica's virtual completion horizon — when its
// queue drains.
func (r *Replica) Busy() time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastDone
}

// Event is one scheduled request: issue req at At (offset from the
// clock epoch).
type Event struct {
	At  time.Duration
	Req cluster.Request
}

// Schedule is a virtual-time workload, sorted by At before running.
type Schedule []Event

// Outcome records one routed request's result.
type Outcome struct {
	Event   Event
	Replica string // serving replica ("" on failure)
	Status  int
	Err     error
	// Done is the virtual completion time offset (0 on failure).
	Done time.Duration
}

// Result is a full scenario run.
type Result struct {
	Outcomes []Outcome
	// Makespan is the virtual time from epoch until the last replica's
	// queue drains — the denominator of simulated throughput.
	Makespan time.Duration
}

// Lost counts requests that produced no 2xx response.
func (r *Result) Lost() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Err != nil || o.Status < 200 || o.Status >= 300 {
			n++
		}
	}
	return n
}

// Throughput returns requests per virtual second.
func (r *Result) Throughput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(len(r.Outcomes)) / r.Makespan.Seconds()
}

// Harness couples the real router to fake replicas on one clock.
type Harness struct {
	Clock    *Clock
	Router   *cluster.Router
	Replicas []*Replica

	// ProbeEvery is the virtual health-probe cadence (default 50ms).
	ProbeEvery time.Duration

	epoch     time.Time
	lastProbe time.Time
}

// NewHarness wires cfgs into fake replicas and a router. mutate, when
// non-nil, adjusts the router config (load factor, probe failures)
// before construction; the harness always installs its own clock.
func NewHarness(cfgs []ReplicaConfig, seed uint64, mutate func(*cluster.Config)) (*Harness, error) {
	clock := NewClock()
	h := &Harness{Clock: clock, ProbeEvery: 50 * time.Millisecond, epoch: clock.Now()}
	rcfg := cluster.Config{Clock: clock.Fn()}
	for _, rc := range cfgs {
		rep := NewReplica(rc, clock, seed)
		h.Replicas = append(h.Replicas, rep)
		rcfg.Backends = append(rcfg.Backends, rep)
	}
	if mutate != nil {
		mutate(&rcfg)
	}
	rcfg.Clock = clock.Fn()
	router, err := cluster.New(rcfg)
	if err != nil {
		return nil, err
	}
	h.Router = router
	h.lastProbe = h.epoch.Add(-h.ProbeEvery)
	return h, nil
}

// Run drives the schedule synchronously: advance the clock to each
// event, run any probe ticks that came due, route the request, record
// the outcome. Deterministic by construction — no goroutines, no real
// time.
func (h *Harness) Run(ctx context.Context, sched Schedule) *Result {
	events := append(Schedule(nil), sched...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	res := &Result{}
	for _, ev := range events {
		at := h.epoch.Add(ev.At)
		// Fire every probe tick scheduled before this event, at its own
		// virtual time, so detection latency is the probe cadence, not
		// the event spacing.
		for h.lastProbe.Add(h.ProbeEvery).Before(at) || h.lastProbe.Add(h.ProbeEvery).Equal(at) {
			h.lastProbe = h.lastProbe.Add(h.ProbeEvery)
			h.Clock.AdvanceTo(h.lastProbe)
			h.Router.ProbeAll(ctx)
		}
		h.Clock.AdvanceTo(at)
		out := Outcome{Event: ev}
		resp, err := h.Router.Do(ctx, ev.Req)
		if err != nil {
			out.Err = err
		} else {
			out.Status = resp.Status
			out.Replica, out.Done = parseSimBody(resp.Body)
		}
		res.Outcomes = append(res.Outcomes, out)
	}
	for _, rep := range h.Replicas {
		if busy := rep.Busy(); busy.Sub(h.epoch) > res.Makespan {
			res.Makespan = busy.Sub(h.epoch)
		}
	}
	return res
}

// parseSimBody extracts the serving replica and completion offset from
// the fake replica's response body without a JSON round-trip (the body
// shape is ours).
func parseSimBody(body []byte) (string, time.Duration) {
	s := string(body)
	var id string
	var ms int64
	if _, err := fmt.Sscanf(s, `{"replica":%q,"done_ms":%d}`, &id, &ms); err != nil {
		return "", 0
	}
	return id, time.Duration(ms) * time.Millisecond
}

// Fingerprint renders the run to a stable string: every outcome in
// schedule order plus each replica's sorted serve counts and the
// final owner table. Two deterministic runs of the same scenario must
// produce identical fingerprints byte for byte.
func (h *Harness) Fingerprint(res *Result) string {
	var b strings.Builder
	for _, o := range res.Outcomes {
		status := o.Status
		if o.Err != nil {
			status = -1
		}
		fmt.Fprintf(&b, "t=%dms %s %s -> %s status=%d done=%dms\n",
			o.Event.At/time.Millisecond, o.Event.Req.Method, o.Event.Req.Key,
			o.Replica, status, o.Done/time.Millisecond)
	}
	for _, rep := range h.Replicas {
		served := rep.ServedKeys()
		keys := make([]string, 0, len(served))
		for k := range served {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "replica %s total=%d\n", rep.ID(), len(keys))
		for _, k := range keys {
			fmt.Fprintf(&b, "  %s=%d\n", k, served[k])
		}
	}
	owners := h.Router.Owners()
	keys := make([]string, 0, len(owners))
	for k := range owners {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "owner %s=%s\n", k, owners[k])
	}
	fmt.Fprintf(&b, "makespan=%dms\n", res.Makespan/time.Millisecond)
	return b.String()
}
