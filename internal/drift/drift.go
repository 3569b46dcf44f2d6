package drift

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/perfsim"
	"repro/internal/randx"
	"repro/internal/stats"
)

// Key identifies one ingest cell: the (system, benchmark) pair whose
// measurement stream is windowed and drift-checked independently.
type Key struct {
	System    string
	Benchmark string
}

// String renders the cell the way gauges and spans name it.
func (k Key) String() string { return k.System + "/" + k.Benchmark }

// The detector and the refit loop run at fixed settings.
const (
	// windowSize is the per-cell ring capacity. Once full, the oldest
	// surviving run is evicted per append.
	windowSize = 256
	// minWindow is the fill below which the detector stays silent: tiny
	// windows make the KS statistic meaningless.
	minWindow = 32
	// pValueAlpha is the KS significance gate: a breach requires
	// KSPValue <= pValueAlpha as well as the distance, so sampling noise
	// on small windows cannot breach on distance alone.
	pValueAlpha = 0.01
	// hysteresis is the number of consecutive breaching evaluations
	// that trips a cell.
	hysteresis = 3
	// refitWorkers bounds concurrent background refits.
	refitWorkers = 2
	// refitQueue bounds cells waiting for a refit slot; past it new
	// trips are shed (counted) and retried on a later ingest evaluation.
	refitQueue = 16
	// baseBackoff is the delay before retrying a failed refit, doubling
	// per failure up to maxBackoff, always with deterministic
	// seed-derived jitter.
	baseBackoff = time.Second
	maxBackoff  = 2 * time.Minute
	// maxMerged caps the merged training set a refit hands to the refit
	// hook (newest runs win).
	maxMerged = 8192
)

// Config holds the detector's two caller-chosen settings. The zero
// value selects the defaults documented on each field.
type Config struct {
	// KSThreshold is the KS distance that counts as a breach (default
	// 0.25), gated by pValueAlpha.
	KSThreshold float64
	// Seed drives the per-cell backoff jitter (default 1).
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.KSThreshold <= 0 {
		c.KSThreshold = 0.25
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// RefitFunc performs one background refit: merged is the training
// baseline plus the drifted window (newest last, already capped). A
// nil error means the serving model now reflects merged; the manager
// then promotes merged to the cell's new baseline and clears the
// window. An error leaves all cell state untouched apart from the
// backoff, so the retry re-merges the identical data (the hook must
// therefore be idempotent on its own side effects).
type RefitFunc func(ctx context.Context, key Key, merged []perfsim.Run) error

// Hooks are the manager's environment: everything that belongs to the
// embedding server rather than the detector itself.
type Hooks struct {
	// Clock is the time source (default randx.SystemClock). Tests
	// install a FixedClock/StepClock for deterministic backoff.
	Clock randx.Clock
	// Tracer, when set, roots one "refit.fit" trace per background
	// refit. Ingest/evaluate spans attach to the request context
	// instead and need no tracer here.
	Tracer *obs.Tracer
	// Baseline supplies a cell's training-time runs on first ingest
	// (>= 2 runs). Required. The cell keeps the returned slice without
	// copying it, so the hook must hand out runs nobody mutates, such
	// as a copy-on-write database snapshot's.
	Baseline func(Key) ([]perfsim.Run, error)
	// Refit performs the background refit. Nil disables the refit
	// loop: cells still detect and report drift but never self-heal.
	Refit RefitFunc
}

// Manager owns every ingest cell: windows, detector state, counters,
// and the background refit queue. Safe for concurrent use.
type Manager struct {
	cfg   Config
	hooks Hooks

	mu          sync.Mutex
	cells       map[Key]*cell
	pending     []*cell
	dispatching bool
	jobs        sync.WaitGroup
}

// NewManager builds a manager; Hooks.Baseline is required.
func NewManager(cfg Config, hooks Hooks) *Manager {
	if hooks.Clock == nil {
		hooks.Clock = randx.SystemClock
	}
	return &Manager{cfg: cfg.withDefaults(), hooks: hooks, cells: map[Key]*cell{}}
}

// cell is one (system, benchmark) stream: the training baseline, the
// ring window of recent survivors, and all detector/refit state. All
// fields are guarded by mu.
type cell struct {
	key Key
	mu  sync.Mutex

	base     []perfsim.Run // training snapshot; replaced by merged set on refit success
	baseSecs []float64     // seconds of base sorted ascending, the detector's reference sample

	ring []perfsim.Run
	head int
	fill int

	report measure.QuarantineReport // running ingest-quarantine totals

	evals    int
	breaches int
	trips    int
	tripped  bool
	lastKS   float64
	lastW1   float64
	lastP    float64
	lastEval time.Time
	hasEval  bool

	refitting bool
	refitOK   int
	refitFail int
	refitShed int
	lastRefit time.Time
	hasRefit  bool
	backoff   time.Duration
	notBefore time.Time
	jrng      *randx.RNG
}

func (c *cell) push(r perfsim.Run) {
	if c.fill < len(c.ring) {
		c.ring[(c.head+c.fill)%len(c.ring)] = r
		c.fill++
		return
	}
	c.ring[c.head] = r
	c.head = (c.head + 1) % len(c.ring)
}

// window returns the ring contents oldest-first.
func (c *cell) window() []perfsim.Run {
	out := make([]perfsim.Run, c.fill)
	for i := 0; i < c.fill; i++ {
		out[i] = c.ring[(c.head+i)%len(c.ring)]
	}
	return out
}

// cell returns (building on first use) the stream's cell. The
// baseline hook runs outside both locks so a slow database read never
// blocks other streams.
func (m *Manager) cell(key Key) (*cell, error) {
	m.mu.Lock()
	c := m.cells[key]
	m.mu.Unlock()
	if c != nil {
		return c, nil
	}
	base, err := m.hooks.Baseline(key)
	if err != nil {
		return nil, fmt.Errorf("drift: baseline for %s: %w", key, err)
	}
	if len(base) < 2 {
		return nil, fmt.Errorf("drift: baseline for %s has %d runs, need >= 2", key, len(base))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.cells[key]; c != nil {
		return c, nil
	}
	// Jitter stream derived from the cell identity the same way the
	// fault injector derives per-stream RNGs, so backoff schedules are
	// reproducible regardless of which cells exist.
	h := fnv.New64a()
	_, _ = h.Write([]byte(key.String()))
	c = &cell{
		key:      key,
		base:     base,
		baseSecs: sortedSeconds(base),
		ring:     make([]perfsim.Run, windowSize),
		jrng:     randx.NewPair(m.cfg.Seed^h.Sum64(), m.cfg.Seed+0x9E3779B97F4A7C15*h.Sum64()),
	}
	m.cells[key] = c
	return c, nil
}

// IngestResult reports what one batch did to its cell.
type IngestResult struct {
	// Report is this batch's quarantine outcome (not the running
	// total; see CellStatus for totals).
	Report measure.QuarantineReport
	// WindowFill is the ring fill after the append.
	WindowFill int
	// Evaluated is true once the window reaches minWindow and the
	// detector ran; KS/W1/PValue/Breaches then carry its outcome.
	Evaluated bool
	KS        float64
	W1        float64
	PValue    float64
	Breaches  int
	// Tripped reports the cell's post-evaluation drift state.
	Tripped bool
	// RefitScheduled is true when this batch queued a background
	// refit (first trip, or a backoff window expiring).
	RefitScheduled bool
}

// Ingest validates one batch for the cell, appends the survivors to
// its window, and runs the drift evaluation. Quarantined runs never
// enter the window; survivors are deep-copied so later caller
// mutation cannot reach the ring. The batch is never mutated.
func (m *Manager) Ingest(ctx context.Context, key Key, runs []perfsim.Run, nMetrics int) (*IngestResult, error) {
	c, err := m.cell(key)
	if err != nil {
		return nil, err
	}
	_, vspan := obs.Start(ctx, "ingest.validate")
	kept, rep := measure.ValidateRuns(runs, nMetrics, 0, measure.ValidationPolicy{})
	vspan.SetAttr("cell", key.String())
	vspan.SetAttr("total", rep.Total)
	vspan.SetAttr("quarantined", rep.Quarantined)
	vspan.End()

	res := &IngestResult{Report: rep}
	now := m.hooks.Clock()
	schedule := false
	func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.report.Merge(rep)
		for i := range kept {
			c.push(kept[i].Clone())
		}
		res.WindowFill = c.fill
		if c.fill >= minWindow {
			_, espan := obs.Start(ctx, "drift.evaluate")
			m.evaluateLocked(c, now)
			espan.SetAttr("cell", key.String())
			espan.SetAttr("ks", c.lastKS)
			espan.SetAttr("p_value", c.lastP)
			espan.SetAttr("tripped", c.tripped)
			espan.End()
			res.Evaluated = true
			res.KS, res.W1, res.PValue = c.lastKS, c.lastW1, c.lastP
			if c.tripped && !c.refitting && !now.Before(c.notBefore) && m.hooks.Refit != nil {
				c.refitting = true
				schedule = true
			}
		}
		res.Breaches = c.breaches
		res.Tripped = c.tripped
	}()
	if schedule {
		// Refits run detached from the ingest request: their spans belong
		// to the background drain, not the caller's trace.
		res.RefitScheduled = m.enqueue(c)
	}
	return res, nil
}

// sortedSeconds returns the run times of runs sorted ascending, the
// form the sorted KS/W1 cores take.
func sortedSeconds(runs []perfsim.Run) []float64 {
	secs := perfsim.Seconds(runs)
	sort.Float64s(secs)
	return secs
}

// evaluateLocked runs one detector pass over the window (c.mu held):
// KS distance plus significance gate, W1 for the gauges, hysteresis
// on consecutive breaches. The window is sorted once; the baseline is
// kept sorted.
func (m *Manager) evaluateLocked(c *cell, now time.Time) {
	ws := sortedSeconds(c.window())
	c.lastKS = stats.KSSorted(ws, c.baseSecs)
	c.lastW1 = stats.Wasserstein1Sorted(ws, c.baseSecs)
	c.lastP = stats.KSPValue(c.lastKS, len(ws), len(c.baseSecs))
	c.evals++
	c.lastEval = now
	c.hasEval = true
	if c.lastKS >= m.cfg.KSThreshold && c.lastP <= pValueAlpha {
		c.breaches++
	} else {
		c.breaches = 0
	}
	if !c.tripped && c.breaches >= hysteresis {
		c.tripped = true
		c.trips++
	}
}

// enqueue hands a tripped cell to the background dispatcher, shedding
// (and un-claiming) it when the queue is full.
func (m *Manager) enqueue(c *cell) bool {
	shed, start := false, false
	func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if len(m.pending) >= refitQueue {
			shed = true
			return
		}
		m.pending = append(m.pending, c)
		m.jobs.Add(1)
		if !m.dispatching {
			m.dispatching = true
			start = true
		}
	}()
	if shed {
		c.mu.Lock()
		c.refitting = false
		c.refitShed++
		c.mu.Unlock()
		return false
	}
	if start {
		go m.dispatch()
	}
	return true
}

// dispatch drains the pending queue through a bounded worker pool and
// exits when the queue is empty; the next enqueue restarts it. An
// on-demand drainer instead of a resident goroutine keeps the manager
// inert (and leak-free) whenever no drift is happening.
func (m *Manager) dispatch() {
	for {
		var batch []*cell
		func() {
			m.mu.Lock()
			defer m.mu.Unlock()
			batch = m.pending
			m.pending = nil
			if len(batch) == 0 {
				m.dispatching = false
			}
		}()
		if len(batch) == 0 {
			return
		}
		// Refit errors are absorbed into per-cell backoff state rather
		// than aborting the drain, so the pool error is always nil.
		//lint:allow ctxflow refit drain is detached background work owned by the manager, not by any ingest request
		_ = parallel.ForEach(context.Background(), len(batch), refitWorkers, func(ctx context.Context, i int) error {
			m.runRefit(ctx, batch[i])
			return nil
		})
	}
}

// Wait blocks until every queued refit has finished — the test hook
// that makes "background" observable without sleeping. A refit that
// failed into backoff is finished for Wait's purposes; its retry is
// driven by a later ingest.
func (m *Manager) Wait() { m.jobs.Wait() }

// runRefit performs one background refit for a tripped cell.
func (m *Manager) runRefit(ctx context.Context, c *cell) {
	defer m.jobs.Done()
	var span *obs.Span
	if m.hooks.Tracer != nil {
		ctx, span = m.hooks.Tracer.Start(ctx, "refit.fit")
	} else {
		ctx, span = obs.Start(ctx, "refit.fit")
	}
	defer span.End()
	span.SetAttr("cell", c.key.String())
	merged := c.merged()
	span.SetAttr("runs", len(merged))
	err := m.hooks.Refit(ctx, c.key, merged)
	now := m.hooks.Clock()
	if err != nil {
		delay := c.noteRefitFailure(now)
		span.SetAttr("error", err.Error())
		span.SetAttr("retry_after", delay.String())
		return
	}
	c.noteRefitSuccess(now, merged)
	span.SetAttr("ok", true)
}

// merged snapshots baseline+window as one training set, newest last,
// capped to maxMerged (newest win).
func (c *cell) merged() []perfsim.Run {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]perfsim.Run, 0, len(c.base)+c.fill)
	out = append(out, perfsim.CloneRuns(c.base)...)
	for i := 0; i < c.fill; i++ {
		out = append(out, c.ring[(c.head+i)%len(c.ring)].Clone())
	}
	if len(out) > maxMerged {
		out = out[len(out)-maxMerged:]
	}
	return out
}

// noteRefitFailure books a failed refit: double the backoff (capped),
// add deterministic jitter (up to +50%), and block retries until the
// deadline. Returns the chosen delay.
func (c *cell) noteRefitFailure(now time.Time) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.refitting = false
	c.refitFail++
	if c.backoff <= 0 {
		c.backoff = baseBackoff
	} else {
		c.backoff *= 2
		if c.backoff > maxBackoff {
			c.backoff = maxBackoff
		}
	}
	delay := c.backoff + time.Duration(c.jrng.Float64()*0.5*float64(c.backoff))
	c.notBefore = now.Add(delay)
	return delay
}

// noteRefitSuccess promotes the merged set to the cell's new baseline
// and resets the detector: the window has been absorbed into the
// model, so the cell is fresh again.
func (c *cell) noteRefitSuccess(now time.Time, merged []perfsim.Run) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.refitting = false
	c.refitOK++
	c.tripped = false
	c.breaches = 0
	c.backoff = 0
	c.notBefore = time.Time{}
	c.lastRefit = now
	c.hasRefit = true
	c.base = merged
	c.baseSecs = sortedSeconds(merged)
	c.head, c.fill = 0, 0
}

// CellStatus is one cell's observable state, served by /v1/status and
// mirrored into the metrics registry.
type CellStatus struct {
	Cell       string
	System     string
	Benchmark  string
	WindowFill int
	WindowCap  int
	Baseline   int // runs in the current training baseline

	Ingested    int // runs examined across all batches
	Accepted    int
	Quarantined int
	Repaired    int
	ByClass     map[string]int

	Evals    int
	KS       float64
	W1       float64
	PValue   float64
	Breaches int
	Trips    int
	Tripped  bool
	HasEval  bool
	LastEval time.Time

	Refitting bool
	RefitOK   int
	RefitFail int
	RefitShed int
	HasRefit  bool
	LastRefit time.Time
	// RetryAt is the backoff deadline after a failed refit (zero when
	// no backoff is active).
	RetryAt time.Time
}

// Snapshot returns every cell's status, sorted by cell name so the
// output is deterministic.
func (m *Manager) Snapshot() []CellStatus {
	var cells []*cell
	func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		cells = make([]*cell, 0, len(m.cells))
		for _, c := range m.cells {
			cells = append(cells, c)
		}
		// Cell keys are immutable; sorting fixes the map-iteration order.
		sort.Slice(cells, func(i, j int) bool { return cells[i].key.String() < cells[j].key.String() })
	}()
	out := make([]CellStatus, 0, len(cells))
	for _, c := range cells {
		out = append(out, c.status())
	}
	return out
}

func (c *cell) status() CellStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CellStatus{
		Cell:        c.key.String(),
		System:      c.key.System,
		Benchmark:   c.key.Benchmark,
		WindowFill:  c.fill,
		WindowCap:   len(c.ring),
		Baseline:    len(c.base),
		Ingested:    c.report.Total,
		Accepted:    c.report.Kept,
		Quarantined: c.report.Quarantined,
		Repaired:    c.report.Repaired,
		Evals:       c.evals,
		KS:          c.lastKS,
		W1:          c.lastW1,
		PValue:      c.lastP,
		Breaches:    c.breaches,
		Trips:       c.trips,
		Tripped:     c.tripped,
		HasEval:     c.hasEval,
		LastEval:    c.lastEval,
		Refitting:   c.refitting,
		RefitOK:     c.refitOK,
		RefitFail:   c.refitFail,
		RefitShed:   c.refitShed,
		HasRefit:    c.hasRefit,
		LastRefit:   c.lastRefit,
		RetryAt:     c.notBefore,
	}
	if len(c.report.ByClass) > 0 {
		st.ByClass = make(map[string]int, len(c.report.ByClass))
		for class, n := range c.report.ByClass {
			st.ByClass[class] += n
		}
	}
	return st
}

// State renders a cell's one-word posture for status endpoints.
func (s *CellStatus) State() string {
	switch {
	case s.Refitting:
		return "refitting"
	case s.Tripped:
		return "drifted"
	case !s.HasEval:
		return "filling"
	default:
		return "fresh"
	}
}

// Window returns a copy of the cell's current window (test hook for
// the bit-identity property: quarantined runs never reach it).
func (m *Manager) Window(key Key) []perfsim.Run {
	m.mu.Lock()
	c := m.cells[key]
	m.mu.Unlock()
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return perfsim.CloneRuns(c.window())
}
