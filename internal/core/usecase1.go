package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cv"
	"repro/internal/distrep"
	"repro/internal/features"
	"repro/internal/measure"
	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/modelstore"
	"repro/internal/randx"
	"repro/internal/stats"
)

// UC1Config parameterizes use case 1: predicting an application's
// distribution on a system from a few runs on that system.
type UC1Config struct {
	// Rep selects the distribution representation.
	Rep distrep.Kind
	// Model selects the prediction model.
	Model Model
	// NumSamples is the number of runs the profile is built from (the
	// paper sweeps 1..100 in Figure 6 and uses 10 elsewhere).
	NumSamples int
	// Bins is the histogram bin count (0 = default).
	Bins int
	// Seed drives all stochastic components.
	Seed uint64
	// FeatureMeanOnly restricts profiles to per-metric means (the
	// feature-moments ablation).
	FeatureMeanOnly bool
	// Repair enables winsorize-style counter repair during ingest
	// validation (measure.ValidationPolicy.Repair): runs whose only
	// defect is a corrupt counter value are repaired by median
	// imputation instead of quarantined.
	Repair bool
	// Models tunes model hyperparameters (ablations).
	Models ModelOptions
}

func (c UC1Config) String() string {
	rep, _ := newRepresentation(c.Rep, c.Bins)
	return fmt.Sprintf("UC1{rep=%s model=%s samples=%d}", rep.Name(), c.Model, c.NumSamples)
}

// uc1Data is the assembled learning problem for one system.
type uc1Data struct {
	dataset *ml.Dataset
	rep     distrep.Representation
	// rel holds each benchmark's measured relative times (the 1,000-run
	// ground truth), aligned with dataset rows.
	rel [][]float64
	ids []string
	// quarantine holds the ingest-validation reports per system name
	// (UC2 datasets carry both the source and target systems).
	quarantine map[string][]measure.BenchmarkQuarantine
	// unusable lists benchmarks excluded from the dataset because
	// validation left them without enough clean data; requests for them
	// error with ErrBenchmarkQuarantined instead of training on dirt.
	unusable map[string]bool

	// fpOnce/fp lazily cache the model store's dataset fingerprint; the
	// dataset is immutable once assembled, so one hash serves every
	// model keyed off it.
	fpOnce sync.Once
	fp     uint64

	// measured holds one lazily built summary per row of rel (see
	// measuredSummary).
	measured []measuredCell
}

// measuredCell is one row's summary slot.
type measuredCell struct {
	once sync.Once
	sum  *SampleSummary
}

// measuredSummary returns the summary of row's measured sample,
// building it on the first request for the row. rel never changes once
// the dataset is assembled, and a swap or refit assembles a new
// uc1Data, so the summary lives exactly as long as the sample it
// describes.
func (d *uc1Data) measuredSummary(row int) *SampleSummary {
	c := &d.measured[row]
	c.once.Do(func() { c.sum = NewSampleSummary(d.rel[row]) })
	return c.sum
}

// fingerprint returns the content-address fingerprint of the assembled
// dataset, computed on first use.
func (d *uc1Data) fingerprint() uint64 {
	d.fpOnce.Do(func() { d.fp = modelstore.FingerprintDataset(d.dataset) })
	return d.fp
}

// validateFunc returns sd's ingest-validated view under the Repair
// setting: the cleaned copy and its per-benchmark quarantine reports,
// both read-only to the caller.
type validateFunc func(sd *measure.SystemData, repair bool) (*measure.SystemData, []measure.BenchmarkQuarantine)

// validateFresh validates sd afresh on every call (the one-shot
// evaluation paths, which build each dataset once).
func validateFresh(sd *measure.SystemData, repair bool) (*measure.SystemData, []measure.BenchmarkQuarantine) {
	return sd.Validate(0, 0, measure.ValidationPolicy{Repair: repair})
}

// buildUC1 assembles profiles (from the first NumSamples valid probe
// runs) and targets (representation encodings of the measured
// distributions). Every run passes ingest validation first, through
// validate: corrupt runs are quarantined per benchmark, benchmarks
// left without enough clean data are excluded (and recorded in
// unusable), and on a fully clean database the assembled problem is
// bit-identical to validating nothing.
func buildUC1(sd *measure.SystemData, cfg UC1Config, validate validateFunc) (*uc1Data, error) {
	if cfg.NumSamples < 1 {
		return nil, fmt.Errorf("core: NumSamples must be >= 1, got %d", cfg.NumSamples)
	}
	rep, err := newRepresentation(cfg.Rep, cfg.Bins)
	if err != nil {
		return nil, err
	}
	clean, reports := validate(sd, cfg.Repair)
	d := &uc1Data{
		rep:        rep,
		dataset:    &ml.Dataset{},
		quarantine: map[string][]measure.BenchmarkQuarantine{sd.SystemName: reports},
		unusable:   map[string]bool{},
	}
	for i := range clean.Benchmarks {
		b := &clean.Benchmarks[i]
		id := b.Workload.ID()
		// The sample budget is checked against the campaign's raw probe
		// count: exceeding it is a configuration error, not a data one.
		if cfg.NumSamples > len(sd.Benchmarks[i].ProbeRuns) {
			return nil, fmt.Errorf("core: NumSamples=%d exceeds %d probe runs of %s",
				cfg.NumSamples, len(sd.Benchmarks[i].ProbeRuns), id)
		}
		if reports[i].Unusable {
			d.unusable[id] = true
			continue
		}
		window := cfg.NumSamples
		if window > len(b.ProbeRuns) {
			// Quarantine shrank the probe set below the budget: build the
			// profile from every surviving probe run rather than failing.
			window = len(b.ProbeRuns)
		}
		values, err := features.AppendValues(nil, b.ProbeRuns[:window], len(sd.MetricNames), cfg.FeatureMeanOnly)
		if err != nil {
			return nil, fmt.Errorf("core: profile of %s: %w", id, err)
		}
		rel := b.RelTimes()
		d.dataset.X = append(d.dataset.X, values)
		d.dataset.Y = append(d.dataset.Y, rep.Encode(rel))
		d.rel = append(d.rel, rel)
		d.ids = append(d.ids, id)
		if d.dataset.FeatureNames == nil {
			d.dataset.FeatureNames = features.Names(sd.MetricNames, cfg.FeatureMeanOnly)
		}
	}
	if len(d.ids) < 2 {
		return nil, fmt.Errorf("core: system %s has %d usable benchmarks after ingest validation quarantined %d: %w",
			sd.SystemName, len(d.ids), len(d.unusable), ErrBenchmarkQuarantined)
	}
	if err := d.dataset.Validate(); err != nil {
		return nil, fmt.Errorf("core: UC1 dataset: %w", err)
	}
	d.measured = make([]measuredCell, len(d.rel))
	return d, nil
}

// EvaluateUC1 runs leave-one-benchmark-out cross-validation of use
// case 1 on one system's measurements and returns per-benchmark scores
// in benchmark order.
func EvaluateUC1(sd *measure.SystemData, cfg UC1Config) ([]BenchScore, error) {
	data, err := buildUC1(sd, cfg, validateFresh)
	if err != nil {
		return nil, err
	}
	scores, _, err := evaluateLOGO(data.dataset, data.rel, data.ids, data.rep, cfg.Model, cfg.Models, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return scores, nil
}

// PredictUC1 predicts the distribution of one benchmark from its few-run
// profile, training on all other benchmarks (the deployment scenario and
// the source of the paper's Figure 1(f) and Figure 5 overlays). It
// returns the predicted and measured relative-time samples.
func PredictUC1(sd *measure.SystemData, benchmarkID string, cfg UC1Config) (predicted, actual []float64, err error) {
	data, err := buildUC1(sd, cfg, validateFresh)
	if err != nil {
		return nil, nil, err
	}
	if data.unusable[benchmarkID] {
		return nil, nil, fmt.Errorf("core: %w: %q has no usable validated data", ErrBenchmarkQuarantined, benchmarkID)
	}
	return predictHoldout(data.dataset, data.rel, data.ids, data.rep, benchmarkID, cfg.Model, cfg.Models, cfg.Seed)
}

// FoldError records one cross-validation fold that failed during a
// tolerant evaluation.
type FoldError struct {
	// Benchmark is the held-out benchmark of the failed fold.
	Benchmark string
	// Err is the fold's fit or prediction error.
	Err error
}

// EvaluateUC1Tolerant is EvaluateUC1 for dirty campaigns: per-fold fit
// failures are collected and reported instead of aborting the whole
// evaluation, so a single poisoned fold costs one score, not the
// sweep. Scores cover only the folds that succeeded.
func EvaluateUC1Tolerant(sd *measure.SystemData, cfg UC1Config) ([]BenchScore, []FoldError, error) {
	data, err := buildUC1(sd, cfg, validateFresh)
	if err != nil {
		return nil, nil, err
	}
	scores, failed, err := evaluateLOGO(data.dataset, data.rel, data.ids, data.rep, cfg.Model, cfg.Models, cfg.Seed)
	if err != nil && len(failed) == 0 {
		return nil, nil, err // no fold ran
	}
	return scores, failed, nil
}

// evaluateLOGO is the LOGO evaluation loop for both use cases: every
// fold runs, scores cover the folds that succeeded, and failed folds
// come back as FoldErrors in fold order. err is either a failure before
// any fold ran (failed is then empty) or the failed fold with the
// lowest index, wrapped as "cv: split <benchmark>: ...", for the
// callers that fail the whole evaluation on any fold.
func evaluateLOGO(dataset *ml.Dataset, rel [][]float64, ids []string,
	rep distrep.Representation, model Model, opts ModelOptions, seed uint64) ([]BenchScore, []FoldError, error) {

	splits, err := cv.LeaveOneGroupOut(ids)
	if err != nil {
		return nil, nil, err
	}
	// Pre-derive one RNG per fold so parallel evaluation stays
	// deterministic.
	root := randx.New(seed)
	rngs := make([]*randx.RNG, len(splits))
	seeds := make([]uint64, len(splits))
	for i := range splits {
		rngs[i] = root.Split()
		seeds[i] = seed + uint64(i)*0x9E3779B97F4A7C15
	}
	scores := make([]BenchScore, len(splits))
	//lint:allow ctxflow LOGO evaluation is a synchronous CLI workload; the fold pool owns its lifetime and no caller deadline exists
	errs, err := cv.EvaluateParallel(context.Background(), splits, func(i int, split cv.Split) error {
		reg, err := newModel(model, seeds[i], opts)
		if err != nil {
			return err
		}
		if err := reg.Fit(dataset.Subset(split.Train)); err != nil {
			return err
		}
		test := split.Test[0]
		//lint:allow ctxflow per-fold batch predict in a synchronous CLI evaluation; no caller deadline exists to propagate
		predVec := ml.PredictBatch(context.Background(), reg, [][]float64{dataset.X[test]})[0]
		actualRel := rel[test]
		predRel := rep.Decode(predVec, len(actualRel), rngs[i])
		scores[i] = score(split.Group, predRel, actualRel)
		return nil
	})
	var kept []BenchScore
	var failed []FoldError
	for i, e := range errs {
		if e != nil {
			failed = append(failed, FoldError{Benchmark: splits[i].Group, Err: e})
		} else {
			kept = append(kept, scores[i])
		}
	}
	return kept, failed, err
}

// predictHoldout trains on every benchmark except benchmarkID and
// predicts its distribution.
func predictHoldout(dataset *ml.Dataset, rel [][]float64, ids []string,
	rep distrep.Representation, benchmarkID string, model Model, opts ModelOptions, seed uint64) (predicted, actual []float64, err error) {

	test := -1
	var train []int
	for i, id := range ids {
		if id == benchmarkID {
			test = i
		} else {
			train = append(train, i)
		}
	}
	if test < 0 {
		return nil, nil, fmt.Errorf("core: %w %q (not in dataset)", ErrUnknownBenchmark, benchmarkID)
	}
	reg, err := newModel(model, seed, opts)
	if err != nil {
		return nil, nil, err
	}
	if err := reg.Fit(dataset.Subset(train)); err != nil {
		return nil, nil, err
	}
	predVec := reg.Predict(dataset.X[test])
	actual = rel[test]
	predicted = rep.Decode(predVec, len(actual), randx.New(seed^0xD1B54A32D192ED03))
	return predicted, actual, nil
}

// score computes the per-benchmark accuracy record, sorting each
// sample once. Anderson–Darling keeps its own tagged sort: it orders
// ties across the two samples differently from a merge.
func score(id string, predRel, actualRel []float64) BenchScore {
	sp, sa := stats.SortedCopy(predRel), stats.SortedCopy(actualRel)
	return BenchScore{
		Benchmark:      id,
		KS:             stats.KSSorted(sp, sa),
		W1:             stats.Wasserstein1Sorted(sp, sa),
		AD:             stats.AndersonDarling(predRel, actualRel),
		CvM:            stats.CramerVonMisesSorted(sp, sa),
		Energy:         stats.EnergyDistanceSorted(sp, sa),
		PredictedModes: stats.SampleModes(predRel, sp),
		ActualModes:    stats.SampleModes(actualRel, sa),
	}
}

// FeatureImportanceUC1 trains a random forest on the full use-case-1
// dataset (no hold-out) and returns the per-feature gain importances
// with their feature names — the "which metrics drive the prediction"
// analysis behind cmd/varimportance.
func FeatureImportanceUC1(sd *measure.SystemData, cfg UC1Config) (names []string, importance []float64, err error) {
	data, err := buildUC1(sd, cfg, validateFresh)
	if err != nil {
		return nil, nil, err
	}
	trees := cfg.Models.ForestTrees
	if trees <= 0 {
		trees = 100
	}
	f := forest.New(forest.Config{NumTrees: trees, Seed: cfg.Seed})
	if err := f.Fit(data.dataset); err != nil {
		return nil, nil, err
	}
	return data.dataset.FeatureNames, f.FeatureImportance(), nil
}
