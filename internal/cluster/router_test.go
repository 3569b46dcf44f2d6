package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeBackend is the in-package test replica: scriptable health,
// transport failures, and per-key serve counts.
type fakeBackend struct {
	id string

	mu       sync.Mutex
	ready    bool
	status   string
	breakers int
	fail     bool // transport error on Do

	served sync.Map // key -> *atomic.Int64
	total  atomic.Int64
}

func newFakeBackend(id string) *fakeBackend {
	return &fakeBackend{id: id, ready: true, status: "ok"}
}

func (f *fakeBackend) ID() string { return f.id }

func (f *fakeBackend) set(ready bool, status string, fail bool) {
	f.mu.Lock()
	f.ready, f.status, f.fail = ready, status, fail
	f.mu.Unlock()
}

func (f *fakeBackend) Do(ctx context.Context, req Request) (Response, error) {
	f.mu.Lock()
	fail := f.fail
	f.mu.Unlock()
	if fail {
		return Response{}, fmt.Errorf("connection refused")
	}
	c, _ := f.served.LoadOrStore(req.Key, new(atomic.Int64))
	c.(*atomic.Int64).Add(1)
	f.total.Add(1)
	return Response{Status: http.StatusOK, Body: []byte(`{"ok":true}`)}, nil
}

func (f *fakeBackend) Probe(context.Context) (Probe, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return Probe{}, fmt.Errorf("connection refused")
	}
	return Probe{Ready: f.ready, Status: f.status, BreakersOpen: f.breakers}, nil
}

func testRouter(t *testing.T, n int, mutate func(cfg *Config)) (*Router, []*fakeBackend) {
	t.Helper()
	backs := make([]*fakeBackend, n)
	cfg := Config{}
	for i := range backs {
		backs[i] = newFakeBackend(fmt.Sprintf("replica-%d", i))
		cfg.Backends = append(cfg.Backends, backs[i])
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r, backs
}

// TestRouterConcurrentHealthAndRouting hammers Do from many goroutines
// while probes flip replica health underneath — the -race workhorse.
func TestRouterConcurrentHealthAndRouting(t *testing.T) {
	r, backs := testRouter(t, 4, func(cfg *Config) { cfg.Metrics = obs.NewRegistry() })
	ctx := context.Background()
	keys := testKeys(64)
	stop := make(chan struct{})
	var prober sync.WaitGroup
	prober.Add(1)
	go func() {
		defer prober.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			b := backs[i%len(backs)]
			b.set(i%3 != 0, "ok", false)
			r.ProbeAll(ctx)
		}
	}()
	var errs atomic.Int64
	var workers sync.WaitGroup
	for g := 0; g < 8; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			for i := 0; i < 200; i++ {
				key := keys[(g*200+i)%len(keys)]
				if _, err := r.Do(ctx, Request{Method: "POST", Path: "/v1/predict/uc1", Key: key}); err != nil {
					errs.Add(1)
				}
			}
		}(g)
	}
	workers.Wait()
	close(stop)
	prober.Wait()
	// At most one replica is unhealthy at a time and retries cover it,
	// so hard failures should be rare to zero.
	if errs.Load() > 50 {
		t.Fatalf("%d of 1600 requests failed outright", errs.Load())
	}
}

// TestCacheAffinityNeverRoutesNotReady pins the drain rules: a Down
// replica receives zero requests, keyed or unkeyed, and a Degraded
// owner keeps its keys but trails every Ready fallback.
func TestCacheAffinityNeverRoutesNotReady(t *testing.T) {
	r, backs := testRouter(t, 3, nil)
	ctx := context.Background()
	keys := testKeys(200)
	backs[1].set(false, "draining", false)
	r.ProbeAll(ctx)
	for i, key := range keys {
		if _, err := r.Do(ctx, Request{Method: "POST", Path: "/p", Key: key}); err != nil {
			t.Fatalf("keyed Do %d: %v", i, err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := r.Do(ctx, Request{Method: "GET", Path: "/v1/systems"}); err != nil {
			t.Fatalf("unkeyed Do %d: %v", i, err)
		}
	}
	if got := backs[1].total.Load(); got != 0 {
		t.Fatalf("down replica served %d requests, want 0", got)
	}
	if total := backs[0].total.Load() + backs[2].total.Load(); total != 250 {
		t.Fatalf("live replicas served %d requests, want 250", total)
	}

	// Degraded: replica-2 keeps ownership, serves nothing new.
	backs[2].set(true, "degraded", false)
	r.ProbeAll(ctx)
	before, served := r.Owners(), backs[2].total.Load()
	owned := 0
	for _, key := range keys {
		if before[key] == "replica-2" {
			owned++
		}
		if _, err := r.Do(ctx, Request{Method: "POST", Path: "/p", Key: key}); err != nil {
			t.Fatalf("degraded-phase Do: %v", err)
		}
	}
	if owned == 0 {
		t.Fatal("replica-2 owns no keys; test is vacuous")
	}
	if got := backs[2].total.Load(); got != served {
		t.Fatalf("degraded owner served %d new requests with Ready fallbacks up", got-served)
	}
	for key, id := range r.Owners() {
		if before[key] != id {
			t.Fatalf("key %q moved %s -> %s on degradation", key, before[key], id)
		}
	}

	// The ranking itself: a table owner that disagrees with the ring
	// goes first, Degraded trails Ready, Down is dropped.
	v := View{
		Owner:    "replica-2",
		Sequence: []string{"replica-0", "replica-1", "replica-2", "replica-3"},
		States:   map[string]State{"replica-0": Degraded, "replica-1": Ready, "replica-2": Ready, "replica-3": Down},
	}
	got := CacheAffinity{}.Candidates("k", v)
	if want := []string{"replica-2", "replica-1", "replica-0"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Candidates = %v, want %v", got, want)
	}
	if p := r.Snapshot().Policy; p != "cache-affinity" {
		t.Fatalf("status policy %q, want cache-affinity", p)
	}
}

// TestPolicyByName pins the one routing policy's names: "" and
// "cache-affinity" resolve to CacheAffinity, anything else to nil.
func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"", "cache-affinity"} {
		if p := PolicyByName(name); p == nil || p.Name() != "cache-affinity" {
			t.Fatalf("PolicyByName(%q) = %v, want CacheAffinity", name, p)
		}
	}
	for _, name := range []string{"round-robin", "least-loaded", "Cache-Affinity", "bogus"} {
		if p := PolicyByName(name); p != nil {
			t.Fatalf("PolicyByName(%q) = %v, want nil", name, p)
		}
	}
}

// TestRouterFailoverOnTransportError pins retry semantics: the dead
// owner's transport error fails over to a fallback, the request
// succeeds, and the dead replica trips Down at the failure threshold
// with its keys remapped.
func TestRouterFailoverOnTransportError(t *testing.T) {
	r, backs := testRouter(t, 3, func(cfg *Config) { cfg.ProbeFailures = 1 })
	ctx := context.Background()
	keys := testKeys(60)
	for _, key := range keys {
		if _, err := r.Do(ctx, Request{Method: "POST", Path: "/p", Key: key}); err != nil {
			t.Fatalf("warm Do: %v", err)
		}
	}
	var victim *fakeBackend
	owners := r.Owners()
	for _, b := range backs {
		for _, id := range owners {
			if id == b.id {
				victim = b
				break
			}
		}
		if victim != nil {
			break
		}
	}
	victim.set(true, "ok", true) // transport failures from now on
	for _, key := range keys {
		resp, err := r.Do(ctx, Request{Method: "POST", Path: "/p", Key: key})
		if err != nil {
			t.Fatalf("failover Do(%q): %v", key, err)
		}
		if resp.Status != http.StatusOK {
			t.Fatalf("failover Do(%q) status %d", key, resp.Status)
		}
	}
	if got := r.replicas[victim.id].State(); got != Down {
		t.Fatalf("victim state %v after transport failures, want Down", got)
	}
	for key, id := range r.Owners() {
		if id == victim.id {
			t.Fatalf("key %q still owned by down replica", key)
		}
	}
}

// TestRouterFailbackOnRecovery pins minimal remap and fail-back: keys
// shed by a dead replica return to it (and only to it) on recovery —
// but only the keys whose pure ring owner it is.
func TestRouterFailbackOnRecovery(t *testing.T) {
	r, backs := testRouter(t, 4, nil)
	ctx := context.Background()
	keys := testKeys(200)
	route := func() {
		for _, key := range keys {
			if _, err := r.Do(ctx, Request{Method: "POST", Path: "/p", Key: key}); err != nil {
				t.Fatalf("Do: %v", err)
			}
		}
	}
	route()
	before := r.Owners()

	victim := backs[2]
	victim.set(false, "down", false)
	r.ProbeAll(ctx)
	route()
	during := r.Owners()
	for key, id := range during {
		if id == victim.id {
			t.Fatalf("key %q routed to down replica", key)
		}
		if before[key] != victim.id && during[key] != before[key] {
			t.Fatalf("key %q moved %s -> %s though its owner stayed alive", key, before[key], during[key])
		}
	}

	victim.set(true, "ok", false)
	r.ProbeAll(ctx)
	route()
	after := r.Owners()
	returned := 0
	for key, id := range after {
		if r.ring.Owner(key) == victim.id {
			if id != victim.id {
				t.Fatalf("ring-owned key %q not failed back (owner %s)", key, id)
			}
			returned++
		} else if during[key] != "" && id != during[key] {
			t.Fatalf("non-ring key %q churned %s -> %s on recovery", key, during[key], id)
		}
	}
	if returned == 0 {
		t.Fatal("no keys failed back; test is vacuous")
	}
}

// routerMetricsGolden is the SHA-256 of the router's registry snapshots
// (idle, then after the scripted traffic of TestRouterMetricsGolden),
// JSON-encoded. It pins every instrument name and value the router
// publishes under /v1/metrics; update it only for a metrics change that
// is meant.
const routerMetricsGolden = "cbaee018af38f19d84d24c90d3f6e9a5c4a74bacd2e8bb6075921bd6289d581e"

// TestRouterMetricsGolden drives one router through successes,
// transport failures, a replica going Down, failed and recovering
// probes and a degraded replica, on a stepping clock so latencies are
// exact, and pins what its registry then holds. Instruments appear only
// once touched: an idle router publishes only its own three counters.
func TestRouterMetricsGolden(t *testing.T) {
	reg := obs.NewRegistry()
	now, tick := time.Unix(0, 0), 0
	clock := func() time.Time {
		tick++
		now = now.Add(time.Duration(tick%7+1) * time.Millisecond)
		return now
	}
	r, backs := testRouter(t, 3, func(cfg *Config) {
		cfg.Metrics = reg
		cfg.Clock = clock
	})
	ctx := context.Background()
	keys := testKeys(30)
	route := func() {
		for _, key := range keys {
			if _, err := r.Do(ctx, Request{Method: "POST", Path: "/p", Key: key}); err != nil {
				t.Fatalf("Do: %v", err)
			}
		}
	}
	var snaps []obs.RegistrySnapshot
	snaps = append(snaps, reg.Snapshot())
	route()
	backs[0].set(true, "ok", true) // transport failures: replica-0 goes Down
	route()
	r.ProbeAll(ctx) // a failed probe on replica-0
	backs[0].set(true, "ok", false)
	backs[1].set(true, "degraded", false)
	r.ProbeAll(ctx) // replica-0 back to Ready, replica-1 Degraded
	route()
	snaps = append(snaps, reg.Snapshot())

	blob, err := json.Marshal(snaps)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != routerMetricsGolden {
		t.Errorf("metrics SHA-256 %s, want %s; snapshots:\n%s", got, routerMetricsGolden, blob)
	}
}
