package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/modelstore"
)

// persistCases spans the three storable families; the CI persistence
// shard runs this file alone against a temp store.
var persistCases = []struct {
	name  string
	model Model
	opts  ModelOptions
}{
	{"knn", KNN, ModelOptions{}},
	{"forest", RandomForest, ModelOptions{ForestTrees: 12}},
	{"xgb", XGBoost, ModelOptions{XGBRounds: 10}},
}

// TestPersistenceAcrossRestart is the save -> restart -> load ->
// golden-predict exercise: a first predictor fits and persists, a
// second predictor over the same store directory (a simulated process
// restart) must answer bit-identically without a single fit on the hot
// path — enforced by a fit hook that fails the test if it fires.
func TestPersistenceAcrossRestart(t *testing.T) {
	db := testCampaign(t)
	dir := t.TempDir()
	ctx := context.Background()
	bench := db.Systems[0].Benchmarks[0].Workload.ID()
	system := db.Systems[0].SystemName

	for _, tc := range persistCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := UC1Config{Model: tc.model, NumSamples: 5, Seed: 11, Models: tc.opts}

			store, err := modelstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			warm := NewPredictor(db)
			warm.SetModelStore(modelstore.NewRegistry(store))
			golden, err := warm.PredictUC1(ctx, system, bench, cfg)
			if err != nil {
				t.Fatalf("warm fit: %v", err)
			}
			if s := warm.ModelStore().Stats(); s.Misses != 1 || s.SaveErrors != 0 {
				t.Fatalf("warm store stats %+v", s)
			}

			// "Restart": a fresh predictor and registry, same directory.
			store2, err := modelstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			cold := NewPredictor(db)
			cold.SetModelStore(modelstore.NewRegistry(store2))
			cold.SetFitHook(func(info FitInfo) error {
				t.Errorf("fit ran on the warm-store hot path: %+v", info)
				return fmt.Errorf("unexpected fit")
			})
			got, err := cold.PredictUC1(ctx, system, bench, cfg)
			if err != nil {
				t.Fatalf("restart predict: %v", err)
			}
			if s := cold.ModelStore().Stats(); s.DiskHits != 1 || s.Misses != 0 {
				t.Fatalf("restart store stats %+v", s)
			}
			if len(got.Predicted) != len(golden.Predicted) {
				t.Fatalf("prediction length %d vs %d", len(got.Predicted), len(golden.Predicted))
			}
			for i := range got.Predicted {
				if math.Float64bits(got.Predicted[i]) != math.Float64bits(golden.Predicted[i]) {
					t.Fatalf("sample %d: loaded %v != fitted %v", i, got.Predicted[i], golden.Predicted[i])
				}
			}
		})
	}
}

// TestPersistenceMatchesStorelessPredictor pins the other direction of
// the contract: attaching a store must not change predictions relative
// to a predictor that always fits.
func TestPersistenceMatchesStorelessPredictor(t *testing.T) {
	db := testCampaign(t)
	ctx := context.Background()
	bench := db.Systems[0].Benchmarks[1].Workload.ID()
	system := db.Systems[1].SystemName
	cfg := UC1Config{Model: XGBoost, NumSamples: 5, Seed: 3, Models: ModelOptions{XGBRounds: 10}}

	plain, err := NewPredictor(db).PredictUC1(ctx, system, bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Two rounds against one store: the first fits and persists, the
	// second loads from disk; both must match the storeless answer.
	for round := 0; round < 2; round++ {
		p := NewPredictor(db)
		p.SetModelStore(modelstore.NewRegistry(store))
		got, err := p.PredictUC1(ctx, system, bench, cfg)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range got.Predicted {
			if math.Float64bits(got.Predicted[i]) != math.Float64bits(plain.Predicted[i]) {
				t.Fatalf("round %d sample %d: stored-path %v != plain %v",
					round, i, got.Predicted[i], plain.Predicted[i])
			}
		}
	}
}

// TestPersistenceUC2AndFingerprintInvalidation checks the UC2 path and
// that a dataset change (different sample budget) misses instead of
// loading a stale model: content addressing makes invalidation
// structural.
func TestPersistenceUC2AndFingerprintInvalidation(t *testing.T) {
	db := testCampaign(t)
	ctx := context.Background()
	bench := db.Systems[0].Benchmarks[0].Workload.ID()
	src, dst := db.Systems[0].SystemName, db.Systems[1].SystemName

	store, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPredictor(db)
	p.SetModelStore(modelstore.NewRegistry(store))
	cfg := UC2Config{Model: RandomForest, Seed: 5, Models: ModelOptions{ForestTrees: 10}}
	if _, err := p.PredictUC2(ctx, src, dst, bench, cfg); err != nil {
		t.Fatal(err)
	}
	if s := p.ModelStore().Stats(); s.Misses != 1 {
		t.Fatalf("uc2 first call stats %+v", s)
	}

	// Same config, different dataset: UC1 with another sample budget
	// under the same registry must not collide with anything stored.
	ucfg := UC1Config{Model: RandomForest, NumSamples: 7, Seed: 5, Models: ModelOptions{ForestTrees: 10}}
	if _, err := p.PredictUC1(ctx, src, bench, ucfg); err != nil {
		t.Fatal(err)
	}
	if s := p.ModelStore().Stats(); s.Misses != 2 || s.LoadErrors != 0 {
		t.Fatalf("cross-dataset stats %+v", s)
	}
	keys, err := store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Fatalf("store holds %d models, want 2 distinct addresses", len(keys))
	}
}

// TestPersistenceRefitSurvivesSaveFailure pins that a failed save does
// not fail a drift refit: the fit succeeded, so the refitted model
// serves, the breaker stays closed and the store counts one save
// error.
func TestPersistenceRefitSurvivesSaveFailure(t *testing.T) {
	db := testCampaign(t)
	ctx := context.Background()
	sd := db.Systems[0]
	sys, bench := sd.SystemName, sd.Benchmarks[0].Workload.ID()
	cfg := UC1Config{Model: KNN, NumSamples: 5, Seed: 11}

	dir := t.TempDir()
	store, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPredictor(db)
	p.SetModelStore(modelstore.NewRegistry(store))
	if _, err := p.PredictUC1(ctx, sys, bench, cfg); err != nil {
		t.Fatal(err)
	}
	other := sd.Benchmarks[1]
	if err := p.SetBenchmarkRuns(sys, other.Workload.ID(), widenRuns(other.Runs)); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := p.RefitSystem(ctx, sys); err != nil {
		t.Fatalf("refit with an unwritable store: %v", err)
	}
	got, err := p.PredictUC1(ctx, sys, bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded || !got.CacheHit {
		t.Errorf("post-refit prediction {Degraded:%v Fallback:%q CacheHit:%v}, want the refitted model",
			got.Degraded, got.Fallback, got.CacheHit)
	}
	if s := p.ModelStore().Stats(); s.SaveErrors != 1 || s.Refreshes != 1 {
		t.Errorf("store stats %+v, want 1 save error and 1 refresh", s)
	}
	if d := p.Degraded(); d.BreakersOpen != 0 {
		t.Errorf("breakers open after a refit whose fit succeeded: %+v", p.Breakers())
	}
}
