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
// build instead of duplicating it. Each model key has one slot, which
// holds its primary model and its kNN fallback; a slot's model is fresh
// while the dataset it was fitted on is the one the predictor holds for
// its key, and stale once a drift refit has dropped that dataset.
// Fitted models are immutable after Fit. A held-out benchmark's answer
// is decoded once per fitted model, from the config's seed, and shared;
// a profile prediction decodes from a fresh seed-derived RNG per
// request. So identical requests return identical predictions whether
// they hit or miss the cache.
//
// Fit failures degrade rather than fail: each (system, config) pair is
// guarded by a circuit breaker, and while fits are failing or the
// breaker is open, requests fall back first to the slot's stale
// pre-refit model (if it has one) and then to a kNN model fitted on the
// same data — both flagged Degraded in the Prediction. Configuration
// errors (unknown system/benchmark, quarantined data) never trip the
// breaker and never fall back; they propagate to the caller unchanged.
type Predictor struct {
	// db is the measurement database, swapped copy-on-write by the
	// streaming-ingest merge path (SetBenchmarkRuns): readers load a
	// consistent snapshot once and never see a partial merge.
	db   atomic.Pointer[measure.Database]
	dbMu sync.Mutex // serializes writers (copy-on-write swaps)

	datasets    sync.Map // datasetKey -> *dataCell
	validations sync.Map // validKey -> *validCell
	slots       sync.Map // modelKey -> *modelSlot
	breakers    sync.Map // datasetKey -> *breaker

	now func() time.Time

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
	// StaleServed counts predictions served from a pre-refit model.
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

// Prediction is the outcome of one online prediction request.
type Prediction struct {
	// Predicted is the predicted relative-time sample. For a database
	// benchmark it is the fitted model's one answer (see
	// fittedModel.answer), shared by every request the model serves; do
	// not mutate.
	Predicted []float64
	// PredictedSummary summarizes Predicted for a database benchmark,
	// and is shared with Predicted's other readers; do not mutate. It is
	// nil for profile predictions, whose sample is new on every request.
	PredictedSummary *SampleSummary
	// Actual is the measured ground-truth sample, nil when the request
	// predicted from a caller-supplied probe profile (no holdout).
	Actual []float64
	// Measured summarizes Actual, and is nil when Actual is. It belongs
	// to the dataset snapshot that holds Actual: the first request for
	// the benchmark builds it, every later request on that snapshot
	// shares it, and a swap or refit starts a new snapshot with a new
	// summary. Shared across requests; do not mutate.
	Measured *SampleSummary
	// CacheHit reports whether the fitted model was reused.
	CacheHit bool
	// Degraded reports the prediction came from a fallback model
	// because the primary fit failed or its breaker is open.
	Degraded bool
	// Fallback names the degraded path ("stale" or "knn"; "" when the
	// primary model served).
	Fallback string
}

// SampleSummary holds what a response reads about one sample beyond
// the sample itself: the sorted copy behind its quantiles and the
// KS/W1 cores, its moments and its KDE mode count. The predicted and
// the measured sample of a response each have one.
type SampleSummary struct {
	// Sorted is the sample sorted ascending, for the quantiles and the
	// sorted KS/W1 cores.
	Sorted []float64
	// Moments are the sample's first four moments, summed in sample
	// order.
	Moments stats.Moments4
	// Modes is stats.SampleModes of the sample.
	Modes int
}

// NewSampleSummary summarizes the sample xs, which it does not modify
// or retain.
func NewSampleSummary(xs []float64) *SampleSummary {
	sorted := stats.SortedCopy(xs)
	return &SampleSummary{
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
// trained on, which is how its slot tells a fresh model from a stale
// one.
type fittedModel struct {
	data *uc1Data
	reg  ml.Regressor
	test int    // row index of the held-out benchmark, -1 for full models
	seed uint64 // the seed of the config in the model's key

	// The answer for the held-out row, built once (see answer).
	answerOnce sync.Once
	predicted  []float64
	predSum    *SampleSummary
}

// answer returns the model's decoded prediction for its held-out row
// and that sample's summary, building both on the first call. Every
// input of the decode is fixed for the model's lifetime: the fitted
// regressor, the row, the sample size len(rel[test]) and the seed. A
// fittedModel is served only from the slot of the modelKey it was
// fitted for — fresh, stale after a refit dropped its dataset, or as
// the kNN stand-in — and that key holds the whole config, seed
// included. So every request the model serves wants these same bits,
// and a drift refit, which changes the regressor or the row, builds a
// new fittedModel with an empty answer.
func (m *fittedModel) answer() ([]float64, *SampleSummary) {
	m.answerOnce.Do(func() {
		predVec := m.reg.Predict(m.data.dataset.X[m.test])
		m.predicted = m.data.rep.Decode(predVec, len(m.data.rel[m.test]), randx.New(m.seed^0xD1B54A32D192ED03))
		m.predSum = NewSampleSummary(m.predicted)
	})
	return m.predicted, m.predSum
}

// modelSlot holds one key's models. Unlike a sync.Once cell, a failed
// fit leaves the slot as it was so a later request can retry (gated by
// the breaker); concurrent requests for the same key still serialize on
// the mutex, so at most one fit per key runs at a time.
type modelSlot struct {
	mu       sync.Mutex
	model    *fittedModel // the primary model, fresh or stale
	fallback *fittedModel // the degraded path's kNN model
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
	v, ok := p.datasets.Load(k)
	if !ok {
		v, _ = p.datasets.LoadOrStore(k, &dataCell{})
	}
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
// is replaced, and a system refit drops the system's views.
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
	v, _ := p.breakers.LoadOrStore(k, &breaker{key: k.label()})
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
// storable primary models resolve through the registry — disk, then
// fit-and-persist — and the span's "store" attribute records which
// answered; only an actual fit runs the fit hook, so a warm store
// serves without touching the fit path at all. Fallback models never
// go through the store: they are cheap memorization whose job is to
// work when everything else is broken. refresh skips the disk copy
// (always fit and persist) — the drift refitter's contract, where the
// stored model is known-stale by construction.
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
	case p.registry == nil || fallback || !storable(model):
		reg, err = fit()
	case refresh:
		reg, err = p.registry.Refresh(storeSpec(k, model, seed, opts, data.fingerprint()).Key(), data.fingerprint(), fit)
		span.SetAttr("store", "refresh")
	default:
		var src modelstore.Source
		reg, src, err = p.registry.GetOrFit(storeSpec(k, model, seed, opts, data.fingerprint()).Key(), data.fingerprint(), fit)
		span.SetAttr("store", src.String())
	}
	if err != nil {
		return nil, err
	}
	return &fittedModel{data: data, reg: reg, test: test, seed: seed}, nil
}

// slot returns k's model slot, creating it on first use.
func (p *Predictor) slot(k modelKey) *modelSlot {
	if v, ok := p.slots.Load(k); ok {
		return v.(*modelSlot)
	}
	v, _ := p.slots.LoadOrStore(k, &modelSlot{})
	return v.(*modelSlot)
}

// model returns k's fitted model. The slot's model serves when it is
// fresh, fitted on the dataset the lookup returns now; otherwise model
// fits one under the dataset's breaker and the slot keeps it. A failed
// fit returns *fitError and trips the breaker; a rejected attempt
// returns *BreakerOpenError. degrade is the request path's: on either
// error it serves the slot's stale model if there is one, else the kNN
// fallback, fitted on first use without the breaker (the breaker guards
// the possibly broken primary family; kNN fitting is memorization and
// is the escape hatch). Both are flagged degraded, and a failing
// fallback reports the primary error. refresh is the drift refit's: it
// skips the model store's disk copy and counts no hit. Configuration
// errors (unknown or quarantined benchmark, a dataset that does not
// build) pass through untouched.
//
// The dataset is read under the slot's mutex, and refreshSystem drops
// datasets before it reads each slot under that mutex. So a slot whose
// model was fitted on a dropped dataset is listed for the refit, and
// its model is never served as fresh.
func (p *Predictor) model(ctx context.Context, k modelKey, degrade, refresh bool) (servedModel, error) {
	s := p.slot(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := p.dataset(ctx, k.data)
	if err != nil {
		return servedModel{}, err
	}
	if data.unusable[k.holdout] {
		return servedModel{}, fmt.Errorf("core: %w: %q has no usable validated data", ErrBenchmarkQuarantined, k.holdout)
	}
	if s.model != nil && s.model.data == data {
		if !refresh {
			p.hits.Add(1)
		}
		return servedModel{fittedModel: s.model, hit: true}, nil
	}
	test, train, err := resolveHoldout(data, k.holdout)
	if err != nil {
		return servedModel{}, err
	}
	br := p.breaker(k.data)
	if err = br.allow(p.now()); err == nil {
		fm, fitErr := p.fitResolved(ctx, data, k, test, train, false, refresh)
		if fitErr == nil {
			br.success()
			s.model = fm
			p.misses.Add(1)
			return servedModel{fittedModel: fm}, nil
		}
		err = &fitError{err: fitErr}
		br.failure(p.now(), err)
	}
	if !degrade {
		return servedModel{}, err
	}
	if s.model != nil {
		p.staleServed.Add(1)
		return servedModel{fittedModel: s.model, hit: true, degraded: true, fallback: "stale"}, nil
	}
	hit := s.fallback != nil && s.fallback.data == data
	if !hit {
		fb, fbErr := p.fitResolved(ctx, data, k, test, train, true, false)
		if fbErr != nil {
			return servedModel{}, err
		}
		s.fallback = fb
	}
	p.knnServed.Add(1)
	return servedModel{fittedModel: s.fallback, hit: hit, degraded: true, fallback: "knn"}, nil
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
	m, err := p.model(ctx, k, true, false)
	if err != nil {
		return nil, err
	}
	annotateServed(span, m)
	return decodeHoldout(ctx, m), nil
}

// annotateServed stamps a predictor span with how its model was
// obtained (nil-safe, like all span operations).
func annotateServed(span *obs.Span, m servedModel) {
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
	m, err := p.model(ctx, k, true, false)
	if err != nil {
		return nil, err
	}
	annotateServed(span, m)
	return decodeHoldout(ctx, m), nil
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

// decodeHoldout answers for the fitted model's held-out row. The first
// request decodes the model's output with the same seed derivation as
// the batch predictHoldout, so cached and uncached answers agree
// bit-for-bit; later requests share that answer.
func decodeHoldout(ctx context.Context, m servedModel) *Prediction {
	_, span := obs.Start(ctx, "model.predict")
	defer span.End()
	predicted, sum := m.answer()
	return &Prediction{
		Predicted:        predicted,
		PredictedSummary: sum,
		Actual:           m.data.rel[m.test],
		Measured:         m.data.measuredSummary(m.test),
		CacheHit:         m.hit,
		Degraded:         m.degraded,
		Fallback:         m.fallback,
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
	values, err := features.AppendValues(nil, probe, len(sd.MetricNames), cfg.FeatureMeanOnly)
	if err != nil {
		return nil, err
	}
	k := modelKey{data: datasetKey{useCase: 1, system: system, uc1: cfg}}
	m, err := p.model(ctx, k, true, false)
	if err != nil {
		return nil, err
	}
	annotateServed(span, m)
	return p.decodeProfile(ctx, m, values, n, cfg.Seed)
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
	values, err := features.AppendValues(nil, probe, len(srcSys.MetricNames), false)
	if err != nil {
		return nil, err
	}
	k := modelKey{data: datasetKey{useCase: 2, system: src, target: dst, uc2: cfg}}
	m, err := p.model(ctx, k, true, false)
	if err != nil {
		return nil, err
	}
	annotateServed(span, m)
	return p.decodeProfile(ctx, m, append(values, m.data.rep.Encode(srcRelTimes)...), n, cfg.Seed)
}

func (p *Predictor) decodeProfile(ctx context.Context, m servedModel, input []float64, n int, seed uint64) (*Prediction, error) {
	if got, want := len(input), len(m.data.dataset.X[0]); got != want {
		return nil, fmt.Errorf("core: profile has %d features, model expects %d", got, want)
	}
	n = p.sampleCount(n)
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
	m, err := p.model(ctx, k, true, false)
	if err != nil {
		return nil, err
	}
	annotateServed(span, m)
	want := len(m.data.dataset.X[0])
	rows := make([][]float64, len(probes))
	for i, probe := range probes {
		values, err := features.AppendValues(nil, probe, len(sd.MetricNames), cfg.FeatureMeanOnly)
		if err != nil {
			return nil, fmt.Errorf("core: profile %d: %w", i, err)
		}
		if len(values) != want {
			return nil, fmt.Errorf("core: profile %d has %d features, model expects %d", i, len(values), want)
		}
		rows[i] = values
	}
	n = p.sampleCount(n)
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

// sampleCount is the number of samples a profile prediction decodes:
// n when positive, else the database's runs per benchmark, else the
// paper's campaign size of 1000.
func (p *Predictor) sampleCount(n int) int {
	if n <= 0 {
		n = p.db.Load().RunsPerBenchmark
	}
	if n <= 0 {
		n = 1000
	}
	return n
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
		if _, err := p.model(ctx, items[i].key, false, false); err != nil {
			return fmt.Errorf("core: warm %s: %w", items[i].desc, err)
		}
		return nil
	})
}
