package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/features"
	"repro/internal/measure"
	"repro/internal/ml"
	"repro/internal/modelstore"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/perfsim"
	"repro/internal/randx"
	"repro/internal/stats"
)

// Sentinel errors for request-path lookups, so serving layers can map
// them to proper HTTP status codes with errors.Is.
var (
	// ErrUnknownSystem reports a system name absent from the database.
	ErrUnknownSystem = errors.New("unknown system")
	// ErrUnknownBenchmark reports a benchmark ID absent from a system.
	ErrUnknownBenchmark = errors.New("unknown benchmark")
	// ErrBenchmarkQuarantined reports a benchmark (or whole dataset)
	// whose measurements failed ingest validation and were quarantined:
	// the data exists but is too dirty to train or predict on.
	ErrBenchmarkQuarantined = errors.New("benchmark quarantined")
	// ErrFitFailed matches (via errors.Is) errors from a failed model
	// fit — the class that trips the breaker, as opposed to
	// configuration errors.
	ErrFitFailed = errors.New("model fit failed")
)

// Predictor serves use-case-1/2 predictions from a measurement database
// with the expensive state cached: the assembled learning problem
// (profiles + encoded distributions) is built once per (system, config)
// and each fitted model once per (system, config, held-out benchmark).
// The batch entry points PredictUC1/PredictUC2 rebuild and retrain on
// every call, which is fine for a one-shot CLI but turns an online
// request into an O(train) operation; a Predictor makes repeat requests
// O(predict).
//
// A Predictor is safe for concurrent use. Cache population is
// singleflight-style: concurrent requests for the same key block on one
// build instead of duplicating it. Fitted models are immutable after
// Fit, and decoding draws from a fresh seed-derived RNG per request, so
// identical requests return identical predictions whether they hit or
// miss the cache.
//
// Fit failures degrade rather than fail: each (system, config) pair is
// guarded by a circuit breaker, and while fits are failing or the
// breaker is open, requests fall back first to the stale pre-Refresh
// model (if one exists) and then to a kNN model fitted on the same
// data — both flagged Degraded in the Prediction. Configuration errors
// (unknown system/benchmark, quarantined data) never trip the breaker
// and never fall back; they propagate to the caller unchanged.
type Predictor struct {
	// db is the measurement database, swapped copy-on-write by the
	// streaming-ingest merge path (SetBenchmarkRuns): readers load a
	// consistent snapshot once and never see a partial merge.
	db   atomic.Pointer[measure.Database]
	dbMu sync.Mutex // serializes writers (copy-on-write swaps)

	datasets    sync.Map // datasetKey -> *dataCell
	validations sync.Map // validKey -> *validCell
	models      sync.Map // modelKey -> *modelCell
	stale       sync.Map // modelKey -> *fittedModel (pre-Refresh models, until refitted)
	fallbacks   sync.Map // modelKey -> *modelCell (kNN fallback models)
	breakers    sync.Map // datasetKey -> *breaker

	breakerCfg BreakerConfig
	now        func() time.Time

	// registry, when set, persists fitted primary models and loads them
	// back on later misses (and across process restarts). Nil = off.
	registry *modelstore.Registry

	hookMu  sync.RWMutex
	fitHook FitHook

	hits, misses           atomic.Uint64
	staleServed, knnServed atomic.Uint64
}

// NewPredictor wraps a loaded measurement database in an empty cache.
func NewPredictor(db *measure.Database) *Predictor {
	p := &Predictor{now: randx.SystemClock}
	p.db.Store(db)
	return p
}

// DB exposes the current database snapshot (read-only by convention;
// the ingest path replaces the whole snapshot rather than mutating it).
func (p *Predictor) DB() *measure.Database { return p.db.Load() }

// SetBreakerConfig overrides the fit-breaker tuning. Call before
// serving; breakers already created keep their old configuration.
func (p *Predictor) SetBreakerConfig(cfg BreakerConfig) { p.breakerCfg = cfg }

// SetClock overrides the breaker time source (tests only). Call before
// serving.
func (p *Predictor) SetClock(now func() time.Time) { p.now = now }

// FitInfo describes a model fit about to be attempted, passed to the
// fit hook.
type FitInfo struct {
	// UseCase is 1 or 2.
	UseCase int
	// System is the UC1 system or UC2 source; Target the UC2 target.
	System, Target string
	// Holdout is the held-out benchmark ("" for full deployment models).
	Holdout string
	// Model is the family being fitted.
	Model Model
	// Fallback marks the degraded-path kNN fit.
	Fallback bool
}

// FitHook intercepts model fits. Returning an error aborts the fit and
// counts as a fit failure (tripping the breaker) — the fault-injection
// lever behind the degraded-serving tests and drills.
type FitHook func(FitInfo) error

// SetFitHook installs (or, with nil, removes) the fit interception
// hook.
func (p *Predictor) SetFitHook(h FitHook) {
	p.hookMu.Lock()
	p.fitHook = h
	p.hookMu.Unlock()
}

func (p *Predictor) hook() FitHook {
	p.hookMu.RLock()
	defer p.hookMu.RUnlock()
	return p.fitHook
}

// CacheStats reports how many prediction requests were served from an
// already-fitted model (hits) versus had to train one (misses).
type CacheStats struct {
	Hits, Misses uint64
}

// CacheStats returns a snapshot of the hit/miss counters.
func (p *Predictor) CacheStats() CacheStats {
	return CacheStats{Hits: p.hits.Load(), Misses: p.misses.Load()}
}

// DegradedStats counts predictions served by fallbacks and breakers
// currently open — the server's degraded-mode gauge.
type DegradedStats struct {
	// StaleServed counts predictions served from a pre-Refresh model.
	StaleServed uint64
	// KNNServed counts predictions served by the kNN fallback.
	KNNServed uint64
	// BreakersOpen is the number of breakers open right now.
	BreakersOpen int
}

// Degraded returns a snapshot of the degraded-serving counters.
func (p *Predictor) Degraded() DegradedStats {
	s := DegradedStats{StaleServed: p.staleServed.Load(), KNNServed: p.knnServed.Load()}
	now := p.now()
	p.breakers.Range(func(_, v any) bool {
		if v.(*breaker).state(now).Open {
			s.BreakersOpen++
		}
		return true
	})
	return s
}

// Breakers snapshots every breaker's state, sorted by key.
func (p *Predictor) Breakers() []BreakerState {
	now := p.now()
	var out []BreakerState
	p.breakers.Range(func(_, v any) bool {
		out = append(out, v.(*breaker).state(now))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// QuarantineReports summarizes the ingest-validation quarantine of
// every system touched by an assembled dataset, keyed by system name.
// When multiple configurations saw the same system (e.g. with and
// without Repair), the first built wins.
func (p *Predictor) QuarantineReports() map[string]measure.SystemQuarantine {
	out := map[string]measure.SystemQuarantine{}
	p.datasets.Range(func(_, value any) bool {
		c := value.(*dataCell)
		if !c.done.Load() || c.err != nil || c.data == nil {
			return true
		}
		for sys, reports := range c.data.quarantine {
			if _, seen := out[sys]; !seen {
				out[sys] = measure.Summarize(sys, reports)
			}
		}
		return true
	})
	return out
}

// Refresh drops every fitted model, assembled dataset and validated
// view so the next request re-validates the data and refits, keeping
// the dropped models as stale fallbacks: while a refit is failing or
// its breaker is open, requests are answered by the pre-Refresh model
// flagged Degraded instead of erroring. A key's stale model is
// released as soon as a fresh fit for it succeeds.
func (p *Predictor) Refresh() {
	p.models.Range(func(key, value any) bool {
		c := value.(*modelCell)
		c.mu.Lock()
		fitted := c.fitted
		c.mu.Unlock()
		if fitted != nil {
			p.stale.Store(key, fitted)
		}
		p.models.Delete(key)
		return true
	})
	p.datasets.Range(func(key, _ any) bool {
		p.datasets.Delete(key)
		return true
	})
	p.validations.Range(func(key, _ any) bool {
		p.validations.Delete(key)
		return true
	})
	p.fallbacks.Range(func(key, _ any) bool {
		p.fallbacks.Delete(key)
		return true
	})
}

// Prediction is the outcome of one online prediction request.
type Prediction struct {
	// Predicted is the predicted relative-time sample.
	Predicted []float64
	// Actual is the measured ground-truth sample, nil when the request
	// predicted from a caller-supplied probe profile (no holdout).
	Actual []float64
	// Measured summarizes Actual, and is nil when Actual is. It belongs
	// to the dataset snapshot that holds Actual: the first request for
	// the benchmark builds it, every later request on that snapshot
	// shares it, and a swap or refit starts a new snapshot with a new
	// summary. Shared across requests; do not mutate.
	Measured *MeasuredSummary
	// CacheHit reports whether the fitted model was reused.
	CacheHit bool
	// Degraded reports the prediction came from a fallback model
	// because the primary fit failed or its breaker is open.
	Degraded bool
	// Fallback names the degraded path ("stale" or "knn"; "" when the
	// primary model served).
	Fallback string
}

// MeasuredSummary is the request-independent half of a prediction's
// summary: what the response reports about the measured sample.
type MeasuredSummary struct {
	// Sorted is the measured sample sorted ascending, for the sorted
	// KS/W1 cores.
	Sorted []float64
	// Moments are the sample's first four moments, summed in sample
	// order.
	Moments stats.Moments4
	// Modes is stats.SampleModes of the sample.
	Modes int
}

// NewMeasuredSummary summarizes the measured sample xs, which it does
// not modify or retain.
func NewMeasuredSummary(xs []float64) *MeasuredSummary {
	sorted := stats.SortedCopy(xs)
	return &MeasuredSummary{
		Sorted:  sorted,
		Moments: stats.ComputeMoments4(xs),
		Modes:   stats.SampleModes(xs, sorted),
	}
}

// datasetKey identifies one assembled learning problem.
type datasetKey struct {
	useCase int    // 1 or 2
	system  string // UC1 system / UC2 source system
	target  string // UC2 target system ("" for UC1)
	uc1     UC1Config
	uc2     UC2Config
}

// label renders the key for breaker states and error messages.
func (k datasetKey) label() string {
	if k.useCase == 1 {
		return fmt.Sprintf("%s %s", k.system, k.uc1)
	}
	return fmt.Sprintf("%s->%s %s", k.system, k.target, k.uc2)
}

// params extracts the model family, options, and seed from the config.
func (k datasetKey) params() (Model, ModelOptions, uint64) {
	if k.useCase == 1 {
		return k.uc1.Model, k.uc1.Models, k.uc1.Seed
	}
	return k.uc2.Model, k.uc2.Models, k.uc2.Seed
}

// modelKey identifies one fitted model: a dataset plus the benchmark
// held out of training ("" = trained on every benchmark, the deployment
// model for raw-profile requests).
type modelKey struct {
	data    datasetKey
	holdout string
}

type dataCell struct {
	once sync.Once
	done atomic.Bool
	data *uc1Data
	err  error
}

// fittedModel is one trained regressor bound to the dataset it was
// trained on (so stale models survive a dataset Refresh intact).
type fittedModel struct {
	data *uc1Data
	reg  ml.Regressor
	test int // row index of the held-out benchmark, -1 for full models
}

// modelCell holds one fit slot. Unlike a sync.Once cell, a failed fit
// leaves the cell empty so a later request can retry (gated by the
// breaker); concurrent requests for the same key still serialize on the
// mutex, so at most one fit per key runs at a time.
type modelCell struct {
	mu     sync.Mutex
	fitted *fittedModel
}

// servedModel is a fitted model plus how it was obtained.
type servedModel struct {
	*fittedModel
	hit      bool
	degraded bool
	fallback string
}

// fitError marks errors from the mechanics of fitting a model —
// distinct from configuration errors (unknown keys, quarantined data),
// which never trip the breaker and never fall back.
type fitError struct{ err error }

func (e *fitError) Error() string        { return "core: model fit failed: " + e.err.Error() }
func (e *fitError) Unwrap() error        { return e.err }
func (e *fitError) Is(target error) bool { return target == ErrFitFailed }

// dataset returns the cached learning problem for key, building it on
// first use. The build (profile assembly + ingest validation) is
// recorded as a "dataset.build" span on the building request's trace,
// annotated with how much the quarantine took.
func (p *Predictor) dataset(ctx context.Context, k datasetKey) (*uc1Data, error) {
	v, _ := p.datasets.LoadOrStore(k, &dataCell{})
	c := v.(*dataCell)
	c.once.Do(func() {
		_, span := obs.Start(ctx, "dataset.build")
		defer span.End()
		span.SetAttr("key", k.label())
		c.data, c.err = p.buildDataset(k)
		c.done.Store(true)
		if c.err != nil || c.data == nil {
			span.SetAttr("error", true)
			return
		}
		span.SetAttr("benchmarks", len(c.data.ids))
		span.SetAttr("unusable", len(c.data.unusable))
		quarantined := 0
		for _, reports := range c.data.quarantine {
			for i := range reports {
				quarantined += reports[i].Runs.Quarantined + reports[i].Probes.Quarantined
			}
		}
		span.SetAttr("quarantined_runs", quarantined)
	})
	return c.data, c.err
}

func (p *Predictor) buildDataset(k datasetKey) (*uc1Data, error) {
	switch k.useCase {
	case 1:
		sd, err := p.system(k.system)
		if err != nil {
			return nil, err
		}
		return buildUC1(sd, k.uc1, p.validated)
	case 2:
		src, err := p.system(k.system)
		if err != nil {
			return nil, err
		}
		dst, err := p.system(k.target)
		if err != nil {
			return nil, err
		}
		return buildUC2(src, dst, k.uc2, p.validated)
	default:
		return nil, fmt.Errorf("core: bad use case %d", k.useCase)
	}
}

// validKey names one system's validated view under one Repair setting.
type validKey struct {
	system string
	repair bool
}

// validCell is the validated view of one system snapshot, built once.
type validCell struct {
	sd      *measure.SystemData // the snapshot it validates
	once    sync.Once
	clean   *measure.SystemData
	reports []measure.BenchmarkQuarantine
}

// validated is the predictor's validateFunc: it validates each system
// snapshot once per Repair setting and hands every dataset built on
// that snapshot — all model families and decoders, both use cases —
// the same read-only view. A view of an older snapshot of the system
// is replaced, and Refresh and a system refit drop the system's views.
func (p *Predictor) validated(sd *measure.SystemData, repair bool) (*measure.SystemData, []measure.BenchmarkQuarantine) {
	k := validKey{system: sd.SystemName, repair: repair}
	v, _ := p.validations.LoadOrStore(k, &validCell{sd: sd})
	c := v.(*validCell)
	if c.sd != sd {
		fresh := &validCell{sd: sd}
		p.validations.CompareAndSwap(k, c, fresh)
		c = fresh
	}
	c.once.Do(func() { c.clean, c.reports = validateFresh(sd, repair) })
	return c.clean, c.reports
}

func (p *Predictor) system(name string) (*measure.SystemData, error) {
	sd, ok := p.db.Load().System(name)
	if !ok {
		return nil, fmt.Errorf("core: %w %q", ErrUnknownSystem, name)
	}
	return sd, nil
}

// breaker returns the fit breaker guarding the dataset key.
func (p *Predictor) breaker(k datasetKey) *breaker {
	if v, ok := p.breakers.Load(k); ok {
		return v.(*breaker)
	}
	v, _ := p.breakers.LoadOrStore(k, newBreaker(k.label(), p.breakerCfg))
	return v.(*breaker)
}

// resolveHoldout maps the holdout benchmark to its dataset row and the
// training rows. An unknown holdout is a configuration error.
func resolveHoldout(data *uc1Data, holdout string) (test int, train []int, err error) {
	test = -1
	train = make([]int, 0, len(data.ids))
	for i, id := range data.ids {
		if id == holdout && holdout != "" {
			test = i
		} else {
			train = append(train, i)
		}
	}
	if holdout != "" && test < 0 {
		return 0, nil, fmt.Errorf("core: %w %q", ErrUnknownBenchmark, holdout)
	}
	return test, train, nil
}

// fitResolved obtains one regressor of the key's model family (or the
// kNN fallback family) for the training rows, under a "model.fit" span
// naming the family. Without a model store it always trains. With one,
// storable primary models resolve through the registry — resident copy,
// then disk, then fit-and-persist — and the span's "store" attribute
// records which tier answered; only an actual fit runs the fit hook, so
// a warm store serves without touching the fit path at all. Fallback
// models never go through the store: they are cheap memorization whose
// job is to work when everything else is broken. refresh forces the
// registry's atomic-swap path (always fit, persist, replace the
// resident copy) — the drift refitter's contract, where the stored
// model is known-stale by construction.
func (p *Predictor) fitResolved(ctx context.Context, data *uc1Data, k modelKey, test int, train []int, fallback, refresh bool) (*fittedModel, error) {
	model, opts, seed := k.data.params()
	if fallback {
		model = KNN
	}
	_, span := obs.Start(ctx, "model.fit")
	defer span.End()
	span.SetAttr("model", model.String())
	span.SetAttr("holdout", k.holdout)
	if fallback {
		span.SetAttr("fallback", true)
	}
	fit := func() (ml.Regressor, error) {
		if h := p.hook(); h != nil {
			if err := h(FitInfo{
				UseCase:  k.data.useCase,
				System:   k.data.system,
				Target:   k.data.target,
				Holdout:  k.holdout,
				Model:    model,
				Fallback: fallback,
			}); err != nil {
				return nil, err
			}
		}
		reg, err := newModel(model, seed, opts)
		if err != nil {
			return nil, err
		}
		if err := reg.Fit(data.dataset.Subset(train)); err != nil {
			return nil, err
		}
		return reg, nil
	}
	var reg ml.Regressor
	var err error
	switch {
	case p.registry != nil && !fallback && storable(model) && refresh:
		// Drift refit: never trust memory or disk — fit on the merged
		// data, persist, and atomically swap the resident entry.
		err = p.registry.Refresh(storeSpec(k, model, seed, opts, data.fingerprint()).Key(), data.fingerprint(), func() (ml.Regressor, error) {
			r, ferr := fit()
			if ferr == nil {
				reg = r
			}
			return r, ferr
		})
		span.SetAttr("store", "refresh")
	case p.registry != nil && !fallback && storable(model):
		var src modelstore.Source
		reg, src, err = p.registry.GetOrFit(storeSpec(k, model, seed, opts, data.fingerprint()).Key(), data.fingerprint(), fit)
		span.SetAttr("store", src.String())
	default:
		reg, err = fit()
	}
	if err != nil {
		return nil, err
	}
	return &fittedModel{data: data, reg: reg, test: test}, nil
}

// modelStrict returns the cached fitted regressor for key, training it
// on first use under the breaker. A failed fit returns *fitError and
// trips the breaker; a rejected attempt returns *BreakerOpenError.
// Configuration errors pass through untouched.
func (p *Predictor) modelStrict(ctx context.Context, k modelKey) (*fittedModel, bool, error) {
	data, err := p.dataset(ctx, k.data)
	if err != nil {
		return nil, false, err
	}
	v, _ := p.models.LoadOrStore(k, &modelCell{})
	c := v.(*modelCell)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fitted != nil {
		p.hits.Add(1)
		return c.fitted, true, nil
	}
	test, train, err := resolveHoldout(data, k.holdout)
	if err != nil {
		return nil, false, err
	}
	br := p.breaker(k.data)
	if err := br.allow(p.now()); err != nil {
		return nil, false, err
	}
	fm, err := p.fitResolved(ctx, data, k, test, train, false, false)
	if err != nil {
		ferr := &fitError{err: err}
		br.failure(p.now(), ferr)
		return nil, false, ferr
	}
	br.success()
	c.fitted = fm
	p.stale.Delete(k)
	p.misses.Add(1)
	return fm, false, nil
}

// fallbackKNN returns the cached degraded-path kNN model for key,
// fitting it on first use. It bypasses the breaker: the breaker guards
// the (possibly expensive, possibly broken) primary family, while kNN
// fitting is memorization and is the escape hatch.
func (p *Predictor) fallbackKNN(ctx context.Context, k modelKey) (*fittedModel, bool, error) {
	data, err := p.dataset(ctx, k.data)
	if err != nil {
		return nil, false, err
	}
	v, _ := p.fallbacks.LoadOrStore(k, &modelCell{})
	c := v.(*modelCell)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fitted != nil {
		return c.fitted, true, nil
	}
	test, train, err := resolveHoldout(data, k.holdout)
	if err != nil {
		return nil, false, err
	}
	fm, err := p.fitResolved(ctx, data, k, test, train, true, false)
	if err != nil {
		return nil, false, err
	}
	c.fitted = fm
	return fm, false, nil
}

// modelServe is the request path: the strict model when healthy,
// otherwise the degraded fallback chain — the stale pre-Refresh model
// first, then the kNN fallback. Only fit failures and open breakers
// degrade; configuration errors propagate.
func (p *Predictor) modelServe(ctx context.Context, k modelKey) (*servedModel, error) {
	fm, hit, err := p.modelStrict(ctx, k)
	if err == nil {
		return &servedModel{fittedModel: fm, hit: hit}, nil
	}
	var ferr *fitError
	var berr *BreakerOpenError
	if !errors.As(err, &ferr) && !errors.As(err, &berr) {
		return nil, err
	}
	if v, ok := p.stale.Load(k); ok {
		p.staleServed.Add(1)
		return &servedModel{fittedModel: v.(*fittedModel), hit: true, degraded: true, fallback: "stale"}, nil
	}
	fb, fbHit, fbErr := p.fallbackKNN(ctx, k)
	if fbErr != nil {
		// The fallback failed too (e.g. the hook kills every fit):
		// report the primary error, which carries breaker semantics.
		return nil, err
	}
	p.knnServed.Add(1)
	return &servedModel{fittedModel: fb, hit: fbHit, degraded: true, fallback: "knn"}, nil
}

// PredictUC1 predicts benchmarkID's distribution on the named system
// from its few-run profile, training on the other benchmarks (cached).
// The returned Prediction carries the measured ground truth so callers
// can score the prediction. Identical to the batch PredictUC1 for the
// same seed, but O(predict) on repeat calls. When ctx carries an obs
// span, the request records a "predictor.uc1" span with fit and
// predict children.
func (p *Predictor) PredictUC1(ctx context.Context, system, benchmarkID string, cfg UC1Config) (*Prediction, error) {
	ctx, span := obs.Start(ctx, "predictor.uc1")
	defer span.End()
	span.SetAttr("system", system)
	span.SetAttr("benchmark", benchmarkID)
	if err := p.checkBenchmark(system, benchmarkID); err != nil {
		return nil, err
	}
	k := modelKey{data: datasetKey{useCase: 1, system: system, uc1: cfg}, holdout: benchmarkID}
	if err := p.checkUsable(ctx, k.data, benchmarkID); err != nil {
		return nil, err
	}
	m, err := p.modelServe(ctx, k)
	if err != nil {
		return nil, err
	}
	annotateServed(span, m)
	return decodeHoldout(ctx, m, cfg.Seed), nil
}

// annotateServed stamps a predictor span with how its model was
// obtained (nil-safe, like all span operations).
func annotateServed(span *obs.Span, m *servedModel) {
	span.SetAttr("cache_hit", m.hit)
	if m.degraded {
		span.SetAttr("fallback", m.fallback)
	}
}

// PredictUC2 predicts benchmarkID's distribution on the target system
// from its source-system measurements, training on the other benchmarks
// (cached).
func (p *Predictor) PredictUC2(ctx context.Context, src, dst, benchmarkID string, cfg UC2Config) (*Prediction, error) {
	ctx, span := obs.Start(ctx, "predictor.uc2")
	defer span.End()
	span.SetAttr("source", src)
	span.SetAttr("target", dst)
	span.SetAttr("benchmark", benchmarkID)
	if err := p.checkBenchmark(src, benchmarkID); err != nil {
		return nil, err
	}
	if err := p.checkBenchmark(dst, benchmarkID); err != nil {
		return nil, err
	}
	k := modelKey{data: datasetKey{useCase: 2, system: src, target: dst, uc2: cfg}, holdout: benchmarkID}
	if err := p.checkUsable(ctx, k.data, benchmarkID); err != nil {
		return nil, err
	}
	m, err := p.modelServe(ctx, k)
	if err != nil {
		return nil, err
	}
	annotateServed(span, m)
	return decodeHoldout(ctx, m, cfg.Seed), nil
}

// checkBenchmark validates the (system, benchmark) pair up front so
// unknown IDs fail fast with a typed error instead of populating the
// cache with failure cells for arbitrary request strings.
func (p *Predictor) checkBenchmark(system, benchmarkID string) error {
	sd, err := p.system(system)
	if err != nil {
		return err
	}
	if _, ok := sd.Find(benchmarkID); !ok {
		return fmt.Errorf("core: %w %q on system %q", ErrUnknownBenchmark, benchmarkID, system)
	}
	return nil
}

// checkUsable rejects requests for benchmarks that exist in the
// database but were quarantined out of the assembled dataset.
func (p *Predictor) checkUsable(ctx context.Context, dk datasetKey, benchmarkID string) error {
	data, err := p.dataset(ctx, dk)
	if err != nil {
		return err
	}
	if data.unusable[benchmarkID] {
		return fmt.Errorf("core: %w: %q has no usable validated data", ErrBenchmarkQuarantined, benchmarkID)
	}
	return nil
}

// decodeHoldout turns the fitted model's output for the held-out row
// into a concrete sample, using the same seed derivation as the batch
// predictHoldout so cached and uncached answers agree bit-for-bit.
func decodeHoldout(ctx context.Context, m *servedModel, seed uint64) *Prediction {
	_, span := obs.Start(ctx, "model.predict")
	defer span.End()
	predVec := m.reg.Predict(m.data.dataset.X[m.test])
	actual := m.data.rel[m.test]
	predicted := m.data.rep.Decode(predVec, len(actual), randx.New(seed^0xD1B54A32D192ED03))
	return &Prediction{
		Predicted: predicted,
		Actual:    actual,
		Measured:  m.data.measuredSummary(m.test),
		CacheHit:  m.hit,
		Degraded:  m.degraded,
		Fallback:  m.fallback,
	}
}

// PredictUC1Profile predicts a distribution on the named system from a
// caller-supplied probe profile (runs of an application the database
// has never seen), using the full model trained on every benchmark —
// the paper's actual deployment scenario. n is the number of samples to
// decode (the database's runs-per-benchmark when <= 0).
func (p *Predictor) PredictUC1Profile(ctx context.Context, system string, probe []perfsim.Run, n int, cfg UC1Config) (*Prediction, error) {
	ctx, span := obs.Start(ctx, "predictor.uc1_profile")
	defer span.End()
	span.SetAttr("system", system)
	sd, err := p.system(system)
	if err != nil {
		return nil, err
	}
	prof, err := buildProfile(probe, sd.MetricNames, cfg.FeatureMeanOnly)
	if err != nil {
		return nil, err
	}
	k := modelKey{data: datasetKey{useCase: 1, system: system, uc1: cfg}}
	m, err := p.modelServe(ctx, k)
	if err != nil {
		return nil, err
	}
	annotateServed(span, m)
	return p.decodeProfile(ctx, m, prof.Values, n, cfg.Seed)
}

// PredictUC2Profile predicts a distribution on the target system from
// an application's source-system probe runs and measured relative
// times, using the full cross-system model trained on every benchmark.
func (p *Predictor) PredictUC2Profile(ctx context.Context, src, dst string, probe []perfsim.Run, srcRelTimes []float64, n int, cfg UC2Config) (*Prediction, error) {
	ctx, span := obs.Start(ctx, "predictor.uc2_profile")
	defer span.End()
	span.SetAttr("source", src)
	span.SetAttr("target", dst)
	srcSys, err := p.system(src)
	if err != nil {
		return nil, err
	}
	if _, err := p.system(dst); err != nil {
		return nil, err
	}
	if len(srcRelTimes) < 2 {
		return nil, fmt.Errorf("core: UC2 profile needs >= 2 source relative times, got %d", len(srcRelTimes))
	}
	prof, err := buildProfile(probe, srcSys.MetricNames, false)
	if err != nil {
		return nil, err
	}
	k := modelKey{data: datasetKey{useCase: 2, system: src, target: dst, uc2: cfg}}
	m, err := p.modelServe(ctx, k)
	if err != nil {
		return nil, err
	}
	annotateServed(span, m)
	input := features.Concat(prof, features.Labeled("src-dist", m.data.rep.Encode(srcRelTimes)))
	return p.decodeProfile(ctx, m, input.Values, n, cfg.Seed)
}

func buildProfile(probe []perfsim.Run, metricNames []string, meanOnly bool) (*features.Profile, error) {
	if meanOnly {
		return features.MeanOnly(probe, metricNames)
	}
	return features.FromRuns(probe, metricNames)
}

func (p *Predictor) decodeProfile(ctx context.Context, m *servedModel, input []float64, n int, seed uint64) (*Prediction, error) {
	if got, want := len(input), len(m.data.dataset.X[0]); got != want {
		return nil, fmt.Errorf("core: profile has %d features, model expects %d", got, want)
	}
	if n <= 0 {
		n = p.db.Load().RunsPerBenchmark
	}
	if n <= 0 {
		n = 1000 // the paper's campaign size
	}
	_, span := obs.Start(ctx, "model.predict")
	defer span.End()
	predVec := m.reg.Predict(input)
	predicted := m.data.rep.Decode(predVec, n, randx.New(seed^0xD1B54A32D192ED03))
	return &Prediction{
		Predicted: predicted,
		CacheHit:  m.hit,
		Degraded:  m.degraded,
		Fallback:  m.fallback,
	}, nil
}

// PredictUC1ProfileBatch predicts distributions for many caller-supplied
// probe profiles on the named system in one call. Every profile is
// scored by the same full deployment model (trained once, cached), and
// the feature rows fan out across the shared worker pool via
// ml.PredictBatch. Result i is decoded from a per-index seed stream
// whose first entry matches PredictUC1Profile exactly, so a batch of
// one is bit-identical to the single-profile path.
func (p *Predictor) PredictUC1ProfileBatch(ctx context.Context, system string, probes [][]perfsim.Run, n int, cfg UC1Config) ([]*Prediction, error) {
	if len(probes) == 0 {
		return nil, fmt.Errorf("core: empty profile batch")
	}
	ctx, span := obs.Start(ctx, "predictor.uc1_batch")
	defer span.End()
	span.SetAttr("system", system)
	span.SetAttr("profiles", len(probes))
	sd, err := p.system(system)
	if err != nil {
		return nil, err
	}
	k := modelKey{data: datasetKey{useCase: 1, system: system, uc1: cfg}}
	m, err := p.modelServe(ctx, k)
	if err != nil {
		return nil, err
	}
	annotateServed(span, m)
	want := len(m.data.dataset.X[0])
	rows := make([][]float64, len(probes))
	for i, probe := range probes {
		prof, err := buildProfile(probe, sd.MetricNames, cfg.FeatureMeanOnly)
		if err != nil {
			return nil, fmt.Errorf("core: profile %d: %w", i, err)
		}
		if len(prof.Values) != want {
			return nil, fmt.Errorf("core: profile %d has %d features, model expects %d", i, len(prof.Values), want)
		}
		rows[i] = prof.Values
	}
	if n <= 0 {
		n = p.db.Load().RunsPerBenchmark
	}
	if n <= 0 {
		n = 1000 // the paper's campaign size
	}
	// Models with the allocation-free batch kernel score into a pooled
	// matrix that is recycled once every row is decoded; others fall
	// back to PredictBatch's own allocation.
	var pooled [][]float64
	if bi, ok := m.reg.(ml.BatchIntoPredictor); ok {
		pooled = uc1BatchMatrices.Get(len(rows), bi.NumOutputs())
	}
	vecs := ml.PredictBatchInto(ctx, m.reg, rows, pooled)
	out := make([]*Prediction, len(probes))
	for i, vec := range vecs {
		seed := cfg.Seed + uint64(i)*0x9E3779B97F4A7C15
		out[i] = &Prediction{
			Predicted: m.data.rep.Decode(vec, n, randx.New(seed^0xD1B54A32D192ED03)),
			CacheHit:  m.hit,
			Degraded:  m.degraded,
			Fallback:  m.fallback,
		}
	}
	if pooled != nil {
		uc1BatchMatrices.Put(pooled)
	}
	return out, nil
}

// uc1BatchMatrices recycles the batch-prediction output matrices of
// PredictUC1ProfileBatch; Decode copies what it keeps, so a matrix can
// be returned as soon as its rows are decoded.
var uc1BatchMatrices ml.MatrixPool

// Warm pre-trains the full (no-holdout) models for the given configs on
// every system, so the first live request is already O(predict). It is
// the server's readiness hook. The models are independent, so they are
// trained concurrently on the shared worker pool; the first failure
// cancels the remaining work. Warming is strict: it never falls back,
// so a failure here surfaces broken configurations at startup.
func (p *Predictor) Warm(ctx context.Context, uc1 []UC1Config, uc2 []UC2Config) error {
	ctx, span := obs.Start(ctx, "predictor.warm")
	defer span.End()
	type warmItem struct {
		key  modelKey
		desc string
	}
	var items []warmItem
	db := p.db.Load()
	for _, sd := range db.Systems {
		for _, cfg := range uc1 {
			items = append(items, warmItem{
				key:  modelKey{data: datasetKey{useCase: 1, system: sd.SystemName, uc1: cfg}},
				desc: fmt.Sprintf("UC1 %s", sd.SystemName),
			})
		}
		for _, cfg := range uc2 {
			for _, dst := range db.Systems {
				if dst.SystemName == sd.SystemName {
					continue
				}
				items = append(items, warmItem{
					key:  modelKey{data: datasetKey{useCase: 2, system: sd.SystemName, target: dst.SystemName, uc2: cfg}},
					desc: fmt.Sprintf("UC2 %s->%s", sd.SystemName, dst.SystemName),
				})
			}
		}
	}
	span.SetAttr("models", len(items))
	return parallel.ForEach(ctx, len(items), 0, func(ctx context.Context, i int) error {
		if _, _, err := p.modelStrict(ctx, items[i].key); err != nil {
			return fmt.Errorf("core: warm %s: %w", items[i].desc, err)
		}
		return nil
	})
}
