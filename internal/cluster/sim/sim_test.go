package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

func replicaConfigs(n int, mutate func(i int, rc *ReplicaConfig)) []ReplicaConfig {
	cfgs := make([]ReplicaConfig, n)
	for i := range cfgs {
		cfgs[i] = ReplicaConfig{ID: fmt.Sprintf("replica-%d", i), ServiceTime: 10 * time.Millisecond}
		if mutate != nil {
			mutate(i, &cfgs[i])
		}
	}
	return cfgs
}

const (
	failoverVictim = "replica-2"
	degradedVictim = "replica-1"
)

// failoverScenario is four replicas with failoverVictim dead from 400
// to 900 ms of virtual time, and three phases: a healthy warm-up that
// assigns every key, the outage storm of predictions with every fifth
// request an ingest batch, and a tail after recovery.
func failoverScenario(t *testing.T) (*Harness, [3]Schedule) {
	t.Helper()
	h, err := NewHarness(replicaConfigs(4, func(i int, rc *ReplicaConfig) {
		if rc.ID == failoverVictim {
			rc.Outages = []Window{{From: 400 * time.Millisecond, To: 900 * time.Millisecond}}
		}
	}), 11, nil)
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	keys := ScenarioKeys(120)
	var storm Schedule
	for i := 0; i < 300; i++ {
		at := 350*time.Millisecond + time.Duration(i)*2*time.Millisecond
		req := cluster.Request{Method: "POST", Path: "/v1/predict/uc1", Key: keys[i%len(keys)]}
		if i%5 == 0 {
			req.Path = "/v1/measurements"
		}
		storm = append(storm, Event{At: at, Req: req})
	}
	return h, [3]Schedule{
		UniformSchedule(keys, 240, 0, time.Millisecond),
		storm,
		UniformSchedule(keys, 240, 1000*time.Millisecond, time.Millisecond),
	}
}

// degradedScenario is three replicas with degradedVictim reporting
// open breakers from 200 ms on, a healthy warm-up, and a phase served
// while it is degraded.
func degradedScenario(t *testing.T) (*Harness, [2]Schedule) {
	t.Helper()
	h, err := NewHarness(replicaConfigs(3, func(i int, rc *ReplicaConfig) {
		if rc.ID == degradedVictim {
			rc.Degraded = []Window{{From: 200 * time.Millisecond, To: time.Hour}}
		}
	}), 13, nil)
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	keys := ScenarioKeys(90)
	return h, [2]Schedule{
		UniformSchedule(keys, 90, 0, time.Millisecond),
		UniformSchedule(keys, 180, 300*time.Millisecond, time.Millisecond),
	}
}

// faultedScenario is five jittered replicas, one dead from 150 to
// 320 ms, under a strided stream with every ninth request an ingest
// batch.
func faultedScenario(t *testing.T) (*Harness, Schedule) {
	t.Helper()
	h, err := NewHarness(replicaConfigs(5, func(i int, rc *ReplicaConfig) {
		rc.JitterFrac = 0.3
		if i == 3 {
			rc.Outages = []Window{{From: 150 * time.Millisecond, To: 320 * time.Millisecond}}
		}
	}), 29, nil)
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	keys := ScenarioKeys(200)
	var sched Schedule
	for i := 0; i < 500; i++ {
		req := cluster.Request{Method: "POST", Path: "/v1/predict/uc1", Key: keys[(i*7)%len(keys)]}
		if i%9 == 0 {
			req.Path = "/v1/measurements"
		}
		sched = append(sched, Event{At: time.Duration(i) * time.Millisecond, Req: req})
	}
	return h, sched
}

// TestSimSingleOwnerAndImbalance is the headline distribution
// invariant on the live router: 1k keys over 8 healthy replicas, every
// key served by exactly one replica (its table owner), and no replica
// owns more than the bounded-load cap ceil(1.25 x 1000/8) = 157.
func TestSimSingleOwnerAndImbalance(t *testing.T) {
	h, err := NewHarness(replicaConfigs(8, nil), 7, nil)
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	keys := ScenarioKeys(1000)
	res := h.Run(context.Background(), UniformSchedule(keys, 2000, 0, time.Millisecond))
	if lost := res.Lost(); lost != 0 {
		t.Fatalf("lost %d requests on a healthy fleet", lost)
	}
	owners := h.Router.Owners()
	for _, rep := range h.Replicas {
		for key := range rep.ServedKeys() {
			if owners[key] != rep.ID() {
				t.Fatalf("key %q served by %s but owned by %s", key, rep.ID(), owners[key])
			}
		}
	}
	servedBy := map[string]string{}
	for _, rep := range h.Replicas {
		for key := range rep.ServedKeys() {
			if prev, ok := servedBy[key]; ok && prev != rep.ID() {
				t.Fatalf("key %q served by both %s and %s", key, prev, rep.ID())
			}
			servedBy[key] = rep.ID()
		}
	}
	cap_ := cluster.BoundedCap(1.25, len(keys), 8)
	if cap_ != 157 {
		t.Fatalf("cap = %d, want 157", cap_)
	}
	for id, n := range h.Router.OwnerCounts() {
		if n > cap_ {
			t.Errorf("replica %s owns %d keys, above cap %d", id, n, cap_)
		}
	}
}

// TestSimFailoverNoLostRequests is the deterministic failover e2e: one
// replica dies mid-stream on the virtual schedule, every request in
// flight or arriving during the outage still completes via retry, no
// ingest batch is dropped, the remap is minimal, and ownership fails
// back after recovery.
func TestSimFailoverNoLostRequests(t *testing.T) {
	const victimID = failoverVictim
	h, phases := failoverScenario(t)
	ctx := context.Background()

	// Phase 1: healthy warm-up assigns every key.
	if lost := h.Run(ctx, phases[0]).Lost(); lost != 0 {
		t.Fatalf("warm-up lost %d requests", lost)
	}
	before := h.Router.Owners()

	// Phase 2: the outage window. Predictions and ingest batches keep
	// arriving; detection happens via transport failures and the 50ms
	// probe cadence, retries carry everything to fallbacks.
	stormRes := h.Run(ctx, phases[1])
	if lost := stormRes.Lost(); lost != 0 {
		for _, o := range stormRes.Outcomes {
			if o.Err != nil {
				t.Logf("lost: t=%v key=%s err=%v", o.Event.At, o.Event.Req.Key, o.Err)
			}
		}
		t.Fatalf("outage phase lost %d of %d requests", lost, len(phases[1]))
	}
	during := h.Router.Owners()
	for key, id := range during {
		if before[key] != victimID && id != before[key] {
			t.Fatalf("key %q churned %s -> %s though its owner stayed up", key, before[key], id)
		}
	}
	ingested := 0
	for _, rep := range h.Replicas {
		for _, n := range rep.Ingested() {
			ingested += n
		}
	}
	if want := 60; ingested != want {
		t.Fatalf("replicas ingested %d measurement batches, want %d", ingested, want)
	}

	// Phase 3: after recovery, probes restore the victim and its
	// ring-owned keys fail back.
	if lost := h.Run(ctx, phases[2]).Lost(); lost != 0 {
		t.Fatalf("recovery phase lost %d requests", lost)
	}
	after := h.Router.Owners()
	returned := 0
	for key, id := range after {
		if h.Router.Ring().Owner(key) == victimID {
			if id != victimID {
				t.Fatalf("ring-owned key %q not failed back to %s (owner %s)", key, victimID, id)
			}
			returned++
		}
	}
	if returned == 0 {
		t.Fatal("victim owned no ring keys; failover test is vacuous")
	}
	if snap := h.Router.Snapshot(); snap.Remaps == 0 {
		t.Fatal("outage produced no remaps")
	}
}

// TestSimDegradedDrainsWithoutRemap pins the degraded semantics: a
// replica reporting open breakers keeps its ownership but receives no
// new traffic while Ready fallbacks exist.
func TestSimDegradedDrainsWithoutRemap(t *testing.T) {
	const victimID = degradedVictim
	h, phases := degradedScenario(t)
	ctx := context.Background()
	if lost := h.Run(ctx, phases[0]).Lost(); lost != 0 {
		t.Fatal("warm-up lost requests")
	}
	before := h.Router.Owners()
	var victim *Replica
	for _, rep := range h.Replicas {
		if rep.ID() == victimID {
			victim = rep
		}
	}
	servedBefore := len(victim.ServedKeys())
	if servedBefore == 0 {
		t.Fatal("victim served nothing while healthy; test is vacuous")
	}

	if lost := h.Run(ctx, phases[1]).Lost(); lost != 0 {
		t.Fatal("degraded phase lost requests")
	}
	// Ownership must be untouched (degraded is a drain, not a death).
	after := h.Router.Owners()
	for key, id := range before {
		if after[key] != id {
			t.Fatalf("key %q remapped %s -> %s on degradation", key, id, after[key])
		}
	}
	// And the victim served nothing new while degraded.
	if got := len(victim.ServedKeys()); got != servedBefore {
		t.Fatalf("degraded replica served %d keys, had %d before degradation", got, servedBefore)
	}
}

// TestSimByteDeterminism runs the same faulted scenario twice in fresh
// harnesses and compares full fingerprints — who served what, final
// ownership, makespan — byte for byte.
func TestSimByteDeterminism(t *testing.T) {
	build := func() (*Harness, *Result) {
		h, sched := faultedScenario(t)
		return h, h.Run(context.Background(), sched)
	}
	h1, r1 := build()
	h2, r2 := build()
	fp1, fp2 := h1.Fingerprint(r1), h2.Fingerprint(r2)
	if fp1 != fp2 {
		t.Fatalf("reruns diverged:\n--- run 1 ---\n%.2000s\n--- run 2 ---\n%.2000s", fp1, fp2)
	}
	if len(fp1) == 0 {
		t.Fatal("empty fingerprint")
	}
}

// TestSimScalingNearLinear is the acceptance scenario: the same
// saturating workload on 1, 2, and 4 replicas must scale virtual-time
// throughput by >= 1.7x and >= 3x respectively.
func TestSimScalingNearLinear(t *testing.T) {
	points, err := ScalingScenario(context.Background(), []int{1, 2, 4}, 200, 2000, 10*time.Millisecond, 5)
	if err != nil {
		t.Fatalf("ScalingScenario: %v", err)
	}
	base := points[0]
	for _, p := range points {
		t.Logf("replicas=%d makespan=%v throughput=%.1f req/s speedup=%.2fx",
			p.Replicas, p.Makespan, p.Throughput, p.Speedup(base))
	}
	if s := points[1].Speedup(base); s < 1.7 {
		t.Fatalf("2-replica speedup %.2fx < 1.7x", s)
	}
	if s := points[2].Speedup(base); s < 3.0 {
		t.Fatalf("4-replica speedup %.2fx < 3.0x", s)
	}
}

// routingGolden is the SHA-256 of each scenario's fingerprints (one
// per phase, concatenated), recorded from the routing this package
// ships. Update an entry only for a routing change that is meant.
var routingGolden = map[string]string{
	"failover":  "de3dc8223711d99378655c16b4608617e13bac5732e1e542760c55f8feb8f32e",
	"degraded":  "d51ddf0cf5c81e42873b2c5f718ff08a8b9b542820c5bc5e4005ce4aaf73eccf",
	"faulted":   "1382a9ad48c309dcade595e7d00d1728086d7332f458032e2a7106bcb909b057",
	"scaling-1": "c9ddf1803640078f01f50cee9c81e8a72ee1a7672cc8d2d6da0d990132b754b6",
	"scaling-2": "52b991b98c225fa846e9e9569b629a076abc4ddfb2388317ea1d379581bd0ecc",
	"scaling-4": "a3a2a90b14b3e58b591d4d8eb50ece45d3ebca4af13a449c8cd9c05305f9af06",
}

// TestSimRoutingGolden pins the routing decisions themselves, not only
// their repeatability: who serves each request, the retries after a
// death, fail-back and bounded-load overflow. TestSimByteDeterminism
// compares a run with a rerun, so a change that routes differently but
// the same way every time passes it; it does not pass this.
func TestSimRoutingGolden(t *testing.T) {
	ctx := context.Background()
	fingerprint := func(h *Harness, phases ...Schedule) string {
		var b strings.Builder
		for _, sched := range phases {
			b.WriteString(h.Fingerprint(h.Run(ctx, sched)))
		}
		return b.String()
	}
	got := map[string]string{}
	h, failover := failoverScenario(t)
	got["failover"] = fingerprint(h, failover[:]...)
	h, degraded := degradedScenario(t)
	got["degraded"] = fingerprint(h, degraded[:]...)
	h, faulted := faultedScenario(t)
	got["faulted"] = fingerprint(h, faulted)
	// TestSimScalingNearLinear's workload: 200 keys, 2,000 requests,
	// 10ms service, arrivals every 10ms/(2x4 replicas).
	for _, n := range []int{1, 2, 4} {
		h, res, err := scalingRun(ctx, n, ScenarioKeys(200), 2000, 10*time.Millisecond, 10*time.Millisecond/8, 5)
		if err != nil {
			t.Fatalf("scalingRun(%d): %v", n, err)
		}
		got[fmt.Sprintf("scaling-%d", n)] = h.Fingerprint(res)
	}
	for name, want := range routingGolden {
		sum := sha256.Sum256([]byte(got[name]))
		if hash := hex.EncodeToString(sum[:]); hash != want {
			t.Errorf("%s: fingerprint SHA-256 %s, want %s", name, hash, want)
		}
	}
}
