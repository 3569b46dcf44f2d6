package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/perfsim"
)

// shiftRuns returns the runs with wall time scaled by factor — an
// unambiguous distribution shift with the counters untouched.
func shiftRuns(runs []perfsim.Run, factor float64) []perfsim.Run {
	out := perfsim.CloneRuns(runs)
	for i := range out {
		out[i].Seconds *= factor
	}
	return out
}

func TestSetBenchmarkRunsCopyOnWrite(t *testing.T) {
	db := testCampaign(t)
	p := NewPredictor(db)
	old := p.DB()
	sys := old.Systems[0].SystemName
	bench := old.Systems[0].Benchmarks[0].Workload.ID()
	origRuns := perfsim.CloneRuns(old.Systems[0].Benchmarks[0].Runs)
	merged := shiftRuns(origRuns, 2)

	if err := p.SetBenchmarkRuns(sys, bench, merged); err != nil {
		t.Fatal(err)
	}
	next := p.DB()
	if next == old {
		t.Fatal("SetBenchmarkRuns must swap a new snapshot")
	}
	// The old snapshot is untouched: readers holding it keep a
	// consistent view (and the shared package test campaign survives).
	if !reflect.DeepEqual(old.Systems[0].Benchmarks[0].Runs, origRuns) {
		t.Fatal("old snapshot mutated")
	}
	if !reflect.DeepEqual(next.Systems[0].Benchmarks[0].Runs, merged) {
		t.Fatal("new snapshot does not hold the replacement runs")
	}
	// The replacement is a deep copy, not an alias of the caller's
	// slice.
	merged[0].Seconds = -1
	if next.Systems[0].Benchmarks[0].Runs[0].Seconds == -1 {
		t.Error("snapshot aliases caller memory")
	}
	// Untouched systems and benchmarks share backing with the old
	// snapshot (copy-on-write along one path only).
	if &next.Systems[1].Benchmarks[0] != &old.Systems[1].Benchmarks[0] {
		t.Error("untouched system was deep-copied")
	}
	if &next.Systems[0].Benchmarks[1].Runs[0] != &old.Systems[0].Benchmarks[1].Runs[0] {
		t.Error("untouched sibling benchmark was deep-copied")
	}
	// Replace semantics: re-applying the same merge is idempotent.
	if err := p.SetBenchmarkRuns(sys, bench, next.Systems[0].Benchmarks[0].Runs); err != nil {
		t.Fatal(err)
	}
	if got, want := len(p.DB().Systems[0].Benchmarks[0].Runs), len(origRuns); got != want {
		t.Errorf("retried merge double-appended: %d runs, want %d", got, want)
	}
}

func TestSetBenchmarkRunsValidation(t *testing.T) {
	p := NewPredictor(testCampaign(t))
	sys := p.DB().Systems[0].SystemName
	bench := p.DB().Systems[0].Benchmarks[0].Workload.ID()
	runs := p.DB().Systems[0].Benchmarks[0].Runs
	if err := p.SetBenchmarkRuns("vax", bench, runs); !errors.Is(err, ErrUnknownSystem) {
		t.Errorf("unknown system: %v", err)
	}
	if err := p.SetBenchmarkRuns(sys, "nosuite/nobench", runs); !errors.Is(err, ErrUnknownBenchmark) {
		t.Errorf("unknown benchmark: %v", err)
	}
	if err := p.SetBenchmarkRuns(sys, bench, runs[:1]); err == nil {
		t.Error("a 1-run replacement must be rejected")
	}
}

// widenRuns triples the spread of the wall times around their mean —
// a shape change that survives the per-benchmark mean normalization of
// RelTimes (a pure scale shift would cancel out).
func widenRuns(runs []perfsim.Run) []perfsim.Run {
	out := perfsim.CloneRuns(runs)
	var mean float64
	for i := range out {
		mean += out[i].Seconds
	}
	mean /= float64(len(out))
	for i := range out {
		s := mean + 3*(out[i].Seconds-mean)
		if s <= 0 {
			s = mean / 10
		}
		out[i].Seconds = s
	}
	return out
}

func TestRefitSystemSwapsServingModel(t *testing.T) {
	db := testCampaign(t)
	p := NewPredictor(db)
	cfg := predictorConfig()
	sd := db.Systems[0]
	sys := sd.SystemName
	bench := sd.Benchmarks[0].Workload.ID()

	before, err := p.PredictUC1(context.Background(), sys, bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Drift every training benchmark (everything but the holdout) and
	// refit: the resident model must be retrained on the merged data.
	for i := 1; i < len(sd.Benchmarks); i++ {
		b := &sd.Benchmarks[i]
		if err := p.SetBenchmarkRuns(sys, b.Workload.ID(), widenRuns(b.Runs)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.RefitSystem(context.Background(), sys); err != nil {
		t.Fatal(err)
	}
	after, err := p.PredictUC1(context.Background(), sys, bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The background refit already retrained the model, so the request
	// hits the cache — and the prediction reflects the new data.
	if !after.CacheHit {
		t.Error("post-refit request must hit the eagerly refitted model")
	}
	if after.Degraded {
		t.Errorf("successful refit must not serve degraded: %+v", after)
	}
	if reflect.DeepEqual(before.Predicted, after.Predicted) {
		t.Error("prediction unchanged although the whole training set drifted")
	}
	// Determinism: a fresh predictor given the already-merged database
	// reproduces the refitted prediction bit-for-bit.
	fresh := NewPredictor(p.DB())
	again, err := fresh.PredictUC1(context.Background(), sys, bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Predicted, again.Predicted) {
		t.Error("refitted prediction is not reproducible from the merged snapshot")
	}
}

func TestRefitSystemFailureLeavesStaleServing(t *testing.T) {
	db := testCampaign(t)
	p := NewPredictor(db)
	cfg := predictorConfig()
	sd := db.Systems[0]
	sys := sd.SystemName
	bench := sd.Benchmarks[0].Workload.ID()

	before, err := p.PredictUC1(context.Background(), sys, bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Merge drifted data, then make every primary fit fail: the refit
	// must error out, and serving must fall back to the stale model
	// rather than going dark.
	other := sd.Benchmarks[1]
	if err := p.SetBenchmarkRuns(sys, other.Workload.ID(), widenRuns(other.Runs)); err != nil {
		t.Fatal(err)
	}
	p.SetFitHook(func(info FitInfo) error {
		if info.Fallback {
			return nil
		}
		return errors.New("drill: refit outage")
	})
	if err := p.RefitSystem(context.Background(), sys); err == nil {
		t.Fatal("failing fits must surface from RefitSystem")
	}
	after, err := p.PredictUC1(context.Background(), sys, bench, cfg)
	if err != nil {
		t.Fatalf("degraded serving must not error: %v", err)
	}
	if !after.Degraded || after.Fallback != "stale" {
		t.Fatalf("want stale fallback, got degraded=%v fallback=%q", after.Degraded, after.Fallback)
	}
	// The stale model is the pre-drift one, so its prediction matches.
	if !reflect.DeepEqual(before.Predicted, after.Predicted) {
		t.Error("stale fallback must reproduce the pre-refit prediction")
	}
}

func TestRefitSystemReleasesStaleModels(t *testing.T) {
	db := testCampaign(t)
	p := NewPredictor(db)
	cfg := predictorConfig()
	sd := db.Systems[0]
	sys := sd.SystemName
	for _, b := range sd.Benchmarks[:2] {
		if _, err := p.PredictUC1(context.Background(), sys, b.Workload.ID(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	other := sd.Benchmarks[2]
	if err := p.SetBenchmarkRuns(sys, other.Workload.ID(), widenRuns(other.Runs)); err != nil {
		t.Fatal(err)
	}
	if err := p.RefitSystem(context.Background(), sys); err != nil {
		t.Fatal(err)
	}
	// Every refit key now holds its fresh model once, not a stale copy
	// beside it.
	p.stale.Range(func(key, _ any) bool {
		t.Errorf("stale model kept after a successful refit of %+v", key)
		return true
	})
	n := 0
	p.models.Range(func(any, any) bool { n++; return true })
	if n != 2 {
		t.Errorf("%d resident models after the refit, want 2", n)
	}
}
