package drift

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/perfsim"
	"repro/internal/randx"
)

const nMetrics = 2

// sample draws n valid runs whose seconds are uniform on
// [0.9*mean, 1.1*mean] — tight enough that two samples from the same
// mean are statistically indistinguishable and two means 2x apart have
// disjoint supports.
func sample(rng *randx.RNG, n int, mean float64) []perfsim.Run {
	out := make([]perfsim.Run, n)
	for i := range out {
		out[i] = perfsim.Run{
			Seconds: mean * (0.9 + 0.2*rng.Float64()),
			Metrics: []float64{rng.Float64() * 100, rng.Float64() * 1e6},
		}
	}
	return out
}

// newTestManager builds a manager over a fixed 80-run baseline at
// mean 1.0, recording every refit call.
type refitRecorder struct {
	mu     sync.Mutex
	calls  int
	merged [][]perfsim.Run
	err    error
}

func (r *refitRecorder) refit(_ context.Context, _ Key, merged []perfsim.Run) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	r.merged = append(r.merged, merged)
	return r.err
}

func (r *refitRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls
}

func newTestManager(cfg Config, clock randx.Clock, rec *refitRecorder) *Manager {
	base := sample(randx.New(1), 80, 1.0)
	hooks := Hooks{
		Clock:    clock,
		Baseline: func(Key) ([]perfsim.Run, error) { return base, nil },
	}
	if rec != nil {
		hooks.Refit = rec.refit
	}
	return NewManager(cfg, hooks)
}

var testKey = Key{System: "intel", Benchmark: "npb/bt"}

// TestCleanStreamNeverTrips is the first detector property: a stream
// drawn from the training distribution never trips the detector or
// schedules a refit, across several stream seeds.
func TestCleanStreamNeverTrips(t *testing.T) {
	for seed := uint64(2); seed < 8; seed++ {
		rec := &refitRecorder{}
		m := newTestManager(Config{}, randx.FixedClock(time.Unix(0, 0)), rec)
		rng := randx.New(seed)
		// 20 batches of 16 overrun the 256-run ring, so eviction runs too.
		for batch := 0; batch < 20; batch++ {
			res, err := m.Ingest(context.Background(), testKey, sample(rng, 16, 1.0), nMetrics)
			if err != nil {
				t.Fatal(err)
			}
			if res.Tripped || res.RefitScheduled {
				t.Fatalf("seed %d batch %d: clean stream tripped (ks=%.3f p=%.3g)", seed, batch, res.KS, res.PValue)
			}
		}
		m.Wait()
		if rec.count() != 0 {
			t.Fatalf("seed %d: clean stream caused %d refits", seed, rec.count())
		}
		st := m.Snapshot()[0]
		if st.Trips != 0 || st.RefitOK+st.RefitFail+st.RefitShed != 0 {
			t.Fatalf("seed %d: refit activity without drift: %+v", seed, st)
		}
		if st.State() != "fresh" {
			t.Errorf("seed %d: evaluated clean cell state = %q, want fresh", seed, st.State())
		}
	}
}

// TestMeanShiftTripsWithinHysteresisBound is the second property: a
// mean shift with disjoint support trips the detector on exactly the
// hysteresis-th evaluation — no earlier (no flapping past the gate) and
// no later (no missed detections).
func TestMeanShiftTripsWithinHysteresisBound(t *testing.T) {
	rec := &refitRecorder{}
	m := newTestManager(Config{}, randx.FixedClock(time.Unix(0, 0)), rec)
	rng := randx.New(11)
	evals := 0
	for batch := 0; batch < 8; batch++ {
		res, err := m.Ingest(context.Background(), testKey, sample(rng, 16, 2.0), nMetrics)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Evaluated {
			if res.Tripped {
				t.Fatalf("batch %d: tripped before the window reached minWindow", batch)
			}
			continue
		}
		evals++
		if res.KS < 0.99 {
			t.Fatalf("disjoint supports must give KS ~ 1, got %.3f", res.KS)
		}
		if evals < hysteresis && res.Tripped {
			t.Fatalf("eval %d: tripped before %d consecutive breaches", evals, hysteresis)
		}
		if evals == hysteresis {
			if !res.Tripped || !res.RefitScheduled {
				t.Fatalf("eval %d: want trip + refit schedule, got %+v", evals, res)
			}
			break
		}
	}
	if evals != hysteresis {
		t.Fatalf("stream ended after %d evaluations without tripping", evals)
	}
	m.Wait()
	if rec.count() != 1 {
		t.Fatalf("refit calls = %d, want 1", rec.count())
	}
	// The merged set is baseline + full window, oldest first.
	if got, want := len(rec.merged[0]), 80+64; got != want {
		t.Errorf("merged size = %d, want %d", got, want)
	}
	st := m.Snapshot()[0]
	if st.State() != "fresh" || st.Tripped || st.RefitOK != 1 {
		t.Errorf("post-refit cell: %+v", st)
	}
	if st.WindowFill != 0 {
		t.Errorf("window not absorbed after refit: fill = %d", st.WindowFill)
	}
	if st.Baseline != 80+64 {
		t.Errorf("baseline not promoted: %d runs, want %d", st.Baseline, 80+64)
	}
}

// TestQuarantinedRunsNeverEnterWindow is the third property: a batch
// mixing valid and defective runs lands in the window as exactly the
// valid runs, bit-identical and in order — and the input batch is
// never mutated.
func TestQuarantinedRunsNeverEnterWindow(t *testing.T) {
	m := newTestManager(Config{}, randx.FixedClock(time.Unix(0, 0)), nil)
	valid := sample(randx.New(3), 4, 1.0)
	batch := []perfsim.Run{
		valid[0],
		{Seconds: math.Inf(1), Metrics: []float64{1, 2}}, // non-finite duration
		valid[1],
		{Seconds: 1, Metrics: []float64{1}},     // truncated schema
		{Seconds: -2, Metrics: []float64{1, 2}}, // non-positive duration
		valid[2],
		{Seconds: 1, Metrics: []float64{math.Inf(1), 2}}, // non-finite counter
		{Seconds: 1, Metrics: []float64{1, 2, 3}},        // schema drift
		valid[3],
	}
	backup := perfsim.CloneRuns(batch)
	res, err := m.Ingest(context.Background(), testKey, batch, nMetrics)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Kept != 4 || res.Report.Quarantined != 5 {
		t.Fatalf("kept=%d quarantined=%d, want 4/5", res.Report.Kept, res.Report.Quarantined)
	}
	if !reflect.DeepEqual(batch, backup) {
		t.Error("Ingest mutated its input batch")
	}
	want := perfsim.CloneRuns(valid)
	window := m.Window(testKey)
	if !reflect.DeepEqual(window, want) {
		t.Fatalf("window is not bit-identical to the valid runs:\n got %+v\nwant %+v", window, want)
	}
	// Mutating the caller's runs after ingest must not reach the ring
	// (batch[0] shares its Metrics slice with valid[0], so compare
	// against the pre-mutation deep copy).
	batch[0].Metrics[0] = -1e9
	if !reflect.DeepEqual(m.Window(testKey), want) {
		t.Error("window aliases caller memory")
	}
}

// tripCell drives key's cell to a trip at the fixed detector settings:
// a first batch of minWindow drifted runs is the first evaluation, and
// each later batch of 16 is one more, up to hysteresis breaches. It
// returns the tripping ingest's result.
func tripCell(t *testing.T, m *Manager, key Key, rng *randx.RNG) *IngestResult {
	t.Helper()
	var res *IngestResult
	for eval := 1; eval <= hysteresis; eval++ {
		n := 16
		if eval == 1 {
			n = minWindow
		}
		var err error
		if res, err = m.Ingest(context.Background(), key, sample(rng, n, 2.0), nMetrics); err != nil {
			t.Fatal(err)
		}
		if res.Tripped != (eval == hysteresis) {
			t.Fatalf("%s: evaluation %d tripped=%v", key, eval, res.Tripped)
		}
	}
	return res
}

// lastClock is a step clock that remembers its last reading: after
// Wait, that is the time the last refit failure was booked at.
type lastClock struct {
	mu   sync.Mutex
	step randx.Clock
	last time.Time
}

func (c *lastClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.last = c.step()
	return c.last
}

func (c *lastClock) read() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// TestRefitFailureBackoffThenRecovery drives the breaker-guarded
// retry loop on a step clock: a failing refit books backoff and keeps
// the cell tripped, each later ingest past the deadline retries with
// the backoff doubled up to maxBackoff, and a succeeding retry finally
// absorbs the window.
func TestRefitFailureBackoffThenRecovery(t *testing.T) {
	rec := &refitRecorder{err: errors.New("drill: refit outage")}
	// 3-minute steps: even the capped, jittered backoff (< 1.5 x
	// maxBackoff) has expired by the time the next ingest reads the
	// clock.
	clock := &lastClock{step: randx.StepClock(time.Unix(1000, 0), 3*time.Minute)}
	m := newTestManager(Config{}, clock.now, rec)
	rng := randx.New(17)
	if res := tripCell(t, m, testKey, rng); !res.RefitScheduled {
		t.Fatalf("trip must schedule a refit, got %+v", res)
	}
	fill := minWindow + (hysteresis-1)*16
	backoff := baseBackoff
	for fails := 1; ; fails++ {
		m.Wait()
		st := m.Snapshot()[0]
		if st.RefitFail != fails || st.RefitOK != 0 || !st.Tripped || st.Refitting {
			t.Fatalf("after failed refit %d: %+v", fails, st)
		}
		if st.State() != "drifted" {
			t.Errorf("state = %q, want drifted while in backoff", st.State())
		}
		// The window survives a failed refit: the retry re-merges it.
		if st.WindowFill != fill {
			t.Errorf("window fill = %d after failure %d, want %d", st.WindowFill, fails, fill)
		}
		// The booked delay is the backoff plus up to 50 % jitter.
		if delay := st.RetryAt.Sub(clock.read()); delay < backoff || delay >= backoff*3/2 {
			t.Fatalf("failure %d: retry in %v, want [%v, %v)", fails, delay, backoff, backoff*3/2)
		}
		if backoff == maxBackoff {
			break
		}
		backoff = min(2*backoff, maxBackoff)
		// The next ingest lands past the deadline and retries.
		res, err := m.Ingest(context.Background(), testKey, sample(rng, 16, 2.0), nMetrics)
		if err != nil {
			t.Fatal(err)
		}
		if !res.RefitScheduled {
			t.Fatalf("post-backoff ingest must reschedule the refit: %+v", res)
		}
		fill += 16
	}
	// Outage over: the next retry succeeds and resets the cell.
	rec.mu.Lock()
	rec.err = nil
	rec.mu.Unlock()
	if _, err := m.Ingest(context.Background(), testKey, sample(rng, 16, 2.0), nMetrics); err != nil {
		t.Fatal(err)
	}
	m.Wait()
	st := m.Snapshot()[0]
	if st.RefitOK != 1 || st.Tripped || st.WindowFill != 0 || !st.RetryAt.IsZero() {
		t.Fatalf("after recovery: %+v", st)
	}
	if st.State() != "fresh" {
		t.Errorf("state = %q, want fresh after recovery", st.State())
	}
}

// TestRefitQueueShed occupies a refit worker, fills the refit queue
// behind it and verifies the overflow trip is shed (counted,
// un-claimed) rather than queued unboundedly, and that a shed cell can
// reschedule later.
func TestRefitQueueShed(t *testing.T) {
	gate := make(chan struct{})
	// One send per refit: the first trip's, refitQueue queued ones and
	// the shed cell's later retry.
	started := make(chan Key, refitQueue+2)
	var rec refitRecorder
	base := sample(randx.New(1), 80, 1.0)
	m := NewManager(Config{}, Hooks{
		Clock:    randx.FixedClock(time.Unix(0, 0)),
		Baseline: func(Key) ([]perfsim.Run, error) { return base, nil },
		Refit: func(ctx context.Context, k Key, merged []perfsim.Run) error {
			started <- k
			<-gate
			return rec.refit(ctx, k, merged)
		},
	})
	rng := randx.New(23)
	keys := make([]Key, refitQueue+2)
	for i := range keys {
		keys[i] = Key{System: "intel", Benchmark: fmt.Sprintf("npb/%02d", i)}
	}
	// The first trip's refit occupies a worker (blocked on the gate),
	// and the dispatcher has taken it off the queue.
	if res := tripCell(t, m, keys[0], rng); !res.RefitScheduled {
		t.Fatalf("first trip: %+v", res)
	}
	<-started
	// The next refitQueue trips queue; the last finds the queue full
	// and is shed.
	shed := keys[len(keys)-1]
	for _, k := range keys[1 : len(keys)-1] {
		if res := tripCell(t, m, k, rng); !res.RefitScheduled {
			t.Fatalf("%s: queued trip not scheduled: %+v", k, res)
		}
	}
	if res := tripCell(t, m, shed, rng); res.RefitScheduled {
		t.Fatal("trip past a full queue must be shed, not scheduled")
	}
	close(gate)
	m.Wait()
	for _, st := range m.Snapshot() {
		want := CellStatus{RefitOK: 1}
		if st.Cell == shed.String() {
			want = CellStatus{RefitShed: 1}
		}
		if st.RefitOK != want.RefitOK || st.RefitShed != want.RefitShed {
			t.Fatalf("%s: refit ok %d shed %d, want %d and %d", st.Cell, st.RefitOK, st.RefitShed, want.RefitOK, want.RefitShed)
		}
	}
	// The shed cell is un-claimed: its next ingest reschedules.
	res, err := m.Ingest(context.Background(), shed, sample(rng, 16, 2.0), nMetrics)
	if err != nil || !res.RefitScheduled {
		t.Fatalf("shed cell must reschedule: %+v, %v", res, err)
	}
	m.Wait()
	if st := m.Window(shed); len(st) != 0 {
		t.Errorf("shed cell window not absorbed after its refit: %d runs", len(st))
	}
}

// TestBaselineErrors covers cell construction failures: a failing
// baseline hook and a too-small baseline both surface as errors, and
// nothing is cached for the key.
func TestBaselineErrors(t *testing.T) {
	m := NewManager(Config{}, Hooks{
		Clock:    randx.FixedClock(time.Unix(0, 0)),
		Baseline: func(Key) ([]perfsim.Run, error) { return nil, errors.New("no such cell") },
	})
	if _, err := m.Ingest(context.Background(), testKey, sample(randx.New(1), 4, 1.0), nMetrics); err == nil {
		t.Fatal("failing baseline hook must fail ingest")
	}
	m = NewManager(Config{}, Hooks{
		Clock:    randx.FixedClock(time.Unix(0, 0)),
		Baseline: func(Key) ([]perfsim.Run, error) { return sample(randx.New(1), 1, 1.0), nil },
	})
	if _, err := m.Ingest(context.Background(), testKey, sample(randx.New(1), 4, 1.0), nMetrics); err == nil {
		t.Fatal("single-run baseline must be rejected")
	}
	if len(m.Snapshot()) != 0 {
		t.Error("failed cell construction must not cache a cell")
	}
}
