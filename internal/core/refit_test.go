package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/distrep"
	"repro/internal/measure"
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
	n := 0
	p.slots.Range(func(key, value any) bool {
		n++
		k := key.(modelKey)
		if m := residentModel(t, p, k); m.data != currentDataset(t, p, k) {
			t.Errorf("stale model kept after a successful refit of %s holdout %q", k.data.label(), k.holdout)
		}
		return true
	})
	if n != 2 {
		t.Errorf("%d resident models after the refit, want 2", n)
	}
}

// TestValidateOncePerSnapshot checks that datasets of two model
// families on one system share one validated view, and that a refit on
// a new snapshot gives the system a new view.
func TestValidateOncePerSnapshot(t *testing.T) {
	db := testCampaign(t)
	p := NewPredictor(db)
	sd := db.Systems[0]
	sys := sd.SystemName
	bench := sd.Benchmarks[0].Workload.ID()
	knn := predictorConfig()
	ridge := knn
	ridge.Model = Ridge
	ridge.Rep = distrep.Histogram
	predict := func() {
		t.Helper()
		for _, cfg := range []UC1Config{knn, ridge} {
			if _, err := p.PredictUC1(context.Background(), sys, bench, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	// views returns the address of the first quarantine report of sys in
	// every assembled dataset: one address means one validation.
	views := func() map[*measure.BenchmarkQuarantine]int {
		out := map[*measure.BenchmarkQuarantine]int{}
		p.datasets.Range(func(_, v any) bool {
			if c := v.(*dataCell); c.data != nil {
				out[&c.data.quarantine[sys][0]]++
			}
			return true
		})
		return out
	}

	predict()
	before := views()
	if len(before) != 1 {
		t.Fatalf("two model families validated %d times, want once: %v", len(before), before)
	}
	for _, n := range before {
		if n != 2 {
			t.Fatalf("%d datasets share the view, want 2", n)
		}
	}

	b := &sd.Benchmarks[1]
	if err := p.SetBenchmarkRuns(sys, b.Workload.ID(), widenRuns(b.Runs)); err != nil {
		t.Fatal(err)
	}
	if err := p.RefitSystem(context.Background(), sys); err != nil {
		t.Fatal(err)
	}
	predict()
	after := views()
	if len(after) != 1 {
		t.Fatalf("after the refit: %d views, want 1: %v", len(after), after)
	}
	for v := range after {
		if before[v] != 0 {
			t.Error("the refit kept the old snapshot's validated view")
		}
	}
}

// currentDataset returns the dataset the predictor holds for k now.
func currentDataset(t *testing.T, p *Predictor, k modelKey) *uc1Data {
	t.Helper()
	data, err := p.dataset(context.Background(), k.data)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRefitWindowConcurrentRequests drifts and refits one system 300
// times, each time while eight concurrent requests ask for a resident
// key.
// However a request's dataset read interleaves with the refit's drop,
// once the refit and the requests are done the key's slot must hold a
// model fitted on the dataset the predictor holds now.
func TestRefitWindowConcurrentRequests(t *testing.T) {
	db := robustCampaign(t)
	p := NewPredictor(db)
	sd := db.Systems[0]
	c := uc1Case(sd.SystemName, sd.Benchmarks[0].Workload.ID(), robustConfig())
	if _, err := c.predict(p); err != nil {
		t.Fatal(err)
	}
	drifted := sd.Benchmarks[1]
	runs := [][]perfsim.Run{widenRuns(drifted.Runs), drifted.Runs}
	for i := 0; i < 300 && !t.Failed(); i++ {
		if err := p.SetBenchmarkRuns(sd.SystemName, drifted.Workload.ID(), runs[i%2]); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.predict(p); err != nil {
					t.Error(err)
				}
			}()
		}
		err := p.RefitSystem(context.Background(), sd.SystemName)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if residentModel(t, p, c.key).data != currentDataset(t, p, c.key) {
			t.Fatalf("refit %d left a model fitted on a dropped dataset resident", i)
		}
	}
}

// TestRefitWindowStaleModelNeverFresh puts a slot in the state the
// refit window leaves: it holds a model fitted on a dataset that a
// refit has dropped. A refit of the key and a request for it must both
// fit anew on the current dataset; neither may take the old model for a
// fresh one.
func TestRefitWindowStaleModelNeverFresh(t *testing.T) {
	db := robustCampaign(t)
	sd := db.Systems[0]
	c := uc1Case(sd.SystemName, sd.Benchmarks[0].Workload.ID(), robustConfig())
	drifted := sd.Benchmarks[1]
	// dropped returns a predictor whose slot for c.key holds the model
	// fitted before a drift whose dataset has been dropped, and that
	// model's prediction.
	dropped := func(t *testing.T) (*Predictor, *Prediction) {
		t.Helper()
		p := NewPredictor(db)
		before, err := c.predict(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.SetBenchmarkRuns(sd.SystemName, drifted.Workload.ID(), widenRuns(drifted.Runs)); err != nil {
			t.Fatal(err)
		}
		if keys := p.refreshSystem(sd.SystemName); !reflect.DeepEqual(keys, []modelKey{c.key}) {
			t.Fatalf("refit lists %v, want the resident key only", keys)
		}
		return p, before
	}
	requireFresh := func(t *testing.T, p *Predictor, before *Prediction) {
		t.Helper()
		if residentModel(t, p, c.key).data != currentDataset(t, p, c.key) {
			t.Fatal("the slot still holds the model fitted on the dropped dataset")
		}
		after, err := c.predict(p)
		if err != nil {
			t.Fatal(err)
		}
		if !after.CacheHit || after.Degraded || reflect.DeepEqual(after.Predicted, before.Predicted) {
			t.Fatalf("after the refit: hit=%v degraded=%v, prediction changed=%v",
				after.CacheHit, after.Degraded, !reflect.DeepEqual(after.Predicted, before.Predicted))
		}
	}

	t.Run("refit", func(t *testing.T) {
		p, before := dropped(t)
		misses := p.CacheStats().Misses
		if _, err := p.model(context.Background(), c.key, false, true); err != nil {
			t.Fatal(err)
		}
		if got := p.CacheStats().Misses - misses; got != 1 {
			t.Fatalf("the refit fitted %d models, want 1", got)
		}
		requireFresh(t, p, before)
	})

	t.Run("request", func(t *testing.T) {
		p, before := dropped(t)
		got, err := c.predict(p)
		if err != nil {
			t.Fatal(err)
		}
		if got.CacheHit || got.Degraded {
			t.Fatalf("served the model fitted on the dropped dataset: hit=%v degraded=%v", got.CacheHit, got.Degraded)
		}
		requireFresh(t, p, before)
	})
}
