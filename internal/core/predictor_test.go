package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/distrep"
	"repro/internal/modelstore"
	"repro/internal/perfsim"
)

func predictorConfig() UC1Config {
	return UC1Config{Rep: distrep.PearsonRnd, Model: KNN, NumSamples: 10, Seed: 7}
}

func TestPredictorMatchesBatchPredict(t *testing.T) {
	db := testCampaign(t)
	p := NewPredictor(db)
	cfg := predictorConfig()
	bench := db.Systems[0].Benchmarks[0].Workload.ID()
	sys := db.Systems[0].SystemName

	got, err := p.PredictUC1(context.Background(), sys, bench, cfg)
	if err != nil {
		t.Fatalf("predictor: %v", err)
	}
	sd, _ := db.System(sys)
	wantPred, wantActual, err := PredictUC1(sd, bench, cfg)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(got.Predicted) != len(wantPred) {
		t.Fatalf("predicted length %d != batch %d", len(got.Predicted), len(wantPred))
	}
	for i := range wantPred {
		if got.Predicted[i] != wantPred[i] {
			t.Fatalf("predicted[%d] = %v, batch = %v: cached predictor must agree bit-for-bit", i, got.Predicted[i], wantPred[i])
		}
	}
	for i := range wantActual {
		if got.Actual[i] != wantActual[i] {
			t.Fatalf("actual[%d] diverges from batch", i)
		}
	}
}

func TestPredictorCacheHitSkipsRefit(t *testing.T) {
	db := testCampaign(t)
	p := NewPredictor(db)
	cfg := predictorConfig()
	sys := db.Systems[0].SystemName
	bench := db.Systems[0].Benchmarks[1].Workload.ID()

	first, err := p.PredictUC1(context.Background(), sys, bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first request must be a miss")
	}
	s0 := p.CacheStats()
	if s0.Misses != 1 || s0.Hits != 0 {
		t.Errorf("after first request: stats = %+v, want 1 miss / 0 hits", s0)
	}

	second, err := p.PredictUC1(context.Background(), sys, bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("identical second request must be a cache hit")
	}
	s1 := p.CacheStats()
	if s1.Misses != 1 {
		t.Errorf("second identical request refit the model: misses = %d", s1.Misses)
	}
	if s1.Hits != 1 {
		t.Errorf("hit counter did not increment: hits = %d", s1.Hits)
	}
	for i := range first.Predicted {
		if first.Predicted[i] != second.Predicted[i] {
			t.Fatalf("hit and miss disagree at sample %d: identical seed must give identical output", i)
		}
	}

	// A different benchmark shares the dataset but needs its own fit.
	other := db.Systems[0].Benchmarks[2].Workload.ID()
	if _, err := p.PredictUC1(context.Background(), sys, other, cfg); err != nil {
		t.Fatal(err)
	}
	s2 := p.CacheStats()
	if s2.Misses != 2 {
		t.Errorf("distinct holdout should miss: misses = %d", s2.Misses)
	}
}

func TestPredictorUnknownIDs(t *testing.T) {
	db := testCampaign(t)
	p := NewPredictor(db)
	cfg := predictorConfig()

	if _, err := p.PredictUC1(context.Background(), "vax", "specomp/376", cfg); !errors.Is(err, ErrUnknownSystem) {
		t.Errorf("unknown system: got %v, want ErrUnknownSystem", err)
	}
	if _, err := p.PredictUC1(context.Background(), db.Systems[0].SystemName, "nosuite/nobench", cfg); !errors.Is(err, ErrUnknownBenchmark) {
		t.Errorf("unknown benchmark: got %v, want ErrUnknownBenchmark", err)
	}
	if _, err := p.PredictUC2(context.Background(), "vax", "intel", "specomp/376", UC2Config{Seed: 1}); !errors.Is(err, ErrUnknownSystem) {
		t.Errorf("UC2 unknown source: got %v, want ErrUnknownSystem", err)
	}
}

// TestPredictorConcurrentIdenticalRequests requires one fit for N
// concurrent requests of one key, with and without a model store: the
// key's cell serializes them, so the store sees one miss and one file.
func TestPredictorConcurrentIdenticalRequests(t *testing.T) {
	for _, withStore := range []bool{false, true} {
		name := "storeless"
		if withStore {
			name = "store"
		}
		t.Run(name, func(t *testing.T) {
			db := testCampaign(t)
			p := NewPredictor(db)
			var store *modelstore.Store
			if withStore {
				var err error
				if store, err = modelstore.Open(t.TempDir()); err != nil {
					t.Fatal(err)
				}
				p.SetModelStore(modelstore.NewRegistry(store))
			}
			cfg := predictorConfig()
			sys := db.Systems[0].SystemName
			bench := db.Systems[0].Benchmarks[3].Workload.ID()

			const goroutines = 8
			preds := make([]*Prediction, goroutines)
			errs := make([]error, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					preds[g], errs[g] = p.PredictUC1(context.Background(), sys, bench, cfg)
				}(g)
			}
			wg.Wait()
			for g := 0; g < goroutines; g++ {
				if errs[g] != nil {
					t.Fatalf("goroutine %d: %v", g, errs[g])
				}
				for i := range preds[0].Predicted {
					if preds[g].Predicted[i] != preds[0].Predicted[i] {
						t.Fatalf("goroutine %d diverges at sample %d", g, i)
					}
				}
			}
			// Singleflight: exactly one build regardless of contention.
			s := p.CacheStats()
			if s.Misses != 1 {
				t.Errorf("concurrent identical requests trained %d times, want 1", s.Misses)
			}
			if s.Hits != goroutines-1 {
				t.Errorf("hits = %d, want %d", s.Hits, goroutines-1)
			}
			if !withStore {
				return
			}
			if ss := p.ModelStore().Stats(); ss.Misses != 1 || ss.DiskHits != 0 {
				t.Errorf("store stats %+v, want 1 miss and no disk hit", ss)
			}
			if keys, err := store.Keys(); err != nil || len(keys) != 1 {
				t.Errorf("store holds %v (err %v), want one file", keys, err)
			}
		})
	}
}

func TestPredictorProfilePaths(t *testing.T) {
	db := testCampaign(t)
	p := NewPredictor(db)
	sys := db.Systems[0].SystemName
	b := &db.Systems[0].Benchmarks[4]

	// UC1 from a raw probe profile: an "unseen" application standing in
	// via the benchmark's reserved probe runs.
	cfg := predictorConfig()
	pred, err := p.PredictUC1Profile(context.Background(), sys, b.ProbeRuns[:10], 500, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Actual != nil {
		t.Error("profile predictions carry no ground truth")
	}
	if len(pred.Predicted) != 500 {
		t.Errorf("asked for 500 samples, got %d", len(pred.Predicted))
	}
	for _, v := range pred.Predicted {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite predicted sample")
		}
	}

	// UC2 from source-system probe runs plus the measured source sample.
	src, dst := db.Systems[0].SystemName, db.Systems[1].SystemName
	pred2, err := p.PredictUC2Profile(context.Background(), src, dst, b.Runs[:50], b.RelTimes(), 300, UC2Config{Rep: distrep.PearsonRnd, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(pred2.Predicted) != 300 {
		t.Errorf("asked for 300 samples, got %d", len(pred2.Predicted))
	}

	// Wrong feature width must be rejected, not silently mispredicted.
	if _, err := p.PredictUC2Profile(context.Background(), src, dst, b.Runs[:50], []float64{1}, 300, UC2Config{Seed: 7}); err == nil {
		t.Error("UC2 profile with 1 source rel time should fail")
	}
}

func TestPredictorWarm(t *testing.T) {
	db := testCampaign(t)
	p := NewPredictor(db)
	cfg := predictorConfig()
	if err := p.Warm(context.Background(), []UC1Config{cfg}, nil); err != nil {
		t.Fatal(err)
	}
	warmMisses := p.CacheStats().Misses
	if warmMisses == 0 {
		t.Fatal("warm trained nothing")
	}
	// A profile request against the warmed full model is a pure hit.
	b := &db.Systems[0].Benchmarks[0]
	pred, err := p.PredictUC1Profile(context.Background(), db.Systems[0].SystemName, b.ProbeRuns[:10], 100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !pred.CacheHit {
		t.Error("request after Warm should hit the cache")
	}
	if p.CacheStats().Misses != warmMisses {
		t.Error("request after Warm retrained a model")
	}
}

func TestPredictorProfileBatch(t *testing.T) {
	db := testCampaign(t)
	p := NewPredictor(db)
	cfg := predictorConfig()
	sys := db.Systems[0].SystemName
	probes := [][]perfsim.Run{
		db.Systems[0].Benchmarks[0].ProbeRuns[:10],
		db.Systems[0].Benchmarks[1].ProbeRuns[:10],
		db.Systems[0].Benchmarks[2].ProbeRuns[:10],
	}

	batch, err := p.PredictUC1ProfileBatch(context.Background(), sys, probes, 200, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("got %d predictions for 3 profiles", len(batch))
	}
	for i, pred := range batch {
		if len(pred.Predicted) != 200 {
			t.Errorf("profile %d: %d samples, want 200", i, len(pred.Predicted))
		}
	}

	// Entry 0 must be bit-identical to the single-profile path (same
	// model, same decode stream).
	single, err := p.PredictUC1Profile(context.Background(), sys, probes[0], 200, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range single.Predicted {
		if batch[0].Predicted[i] != single.Predicted[i] {
			t.Fatalf("batch[0] diverges from PredictUC1Profile at sample %d", i)
		}
	}

	// Repeat batches are deterministic.
	again, err := p.PredictUC1ProfileBatch(context.Background(), sys, probes, 200, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := range batch {
		for i := range batch[k].Predicted {
			if batch[k].Predicted[i] != again[k].Predicted[i] {
				t.Fatalf("repeat batch diverges at profile %d sample %d", k, i)
			}
		}
	}

	// One model fit serves the whole batch: the second batch and the
	// single-profile call were all hits.
	if s := p.CacheStats(); s.Misses != 1 {
		t.Errorf("batch path trained %d models, want 1", s.Misses)
	}

	if _, err := p.PredictUC1ProfileBatch(context.Background(), sys, nil, 0, cfg); err == nil {
		t.Error("empty batch should fail")
	}
	if _, err := p.PredictUC1ProfileBatch(context.Background(), "vax", probes, 0, cfg); !errors.Is(err, ErrUnknownSystem) {
		t.Errorf("unknown system: got %v, want ErrUnknownSystem", err)
	}
}

// TestPredictorWarmParallelDeterministic checks that the parallel warm
// produces the same fitted models as untrained on-demand requests.
func TestPredictorWarmParallelDeterministic(t *testing.T) {
	db := testCampaign(t)
	cfg := predictorConfig()
	warmed := NewPredictor(db)
	if err := warmed.Warm(context.Background(), []UC1Config{cfg}, []UC2Config{{Rep: distrep.PearsonRnd, Seed: 7}}); err != nil {
		t.Fatal(err)
	}
	cold := NewPredictor(db)
	b := &db.Systems[0].Benchmarks[0]
	sys := db.Systems[0].SystemName
	pw, err := warmed.PredictUC1Profile(context.Background(), sys, b.ProbeRuns[:10], 100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := cold.PredictUC1Profile(context.Background(), sys, b.ProbeRuns[:10], 100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !pw.CacheHit || pc.CacheHit {
		t.Errorf("warm hit=%v cold hit=%v, want true/false", pw.CacheHit, pc.CacheHit)
	}
	for i := range pw.Predicted {
		if pw.Predicted[i] != pc.Predicted[i] {
			t.Fatalf("warmed and cold predictions diverge at sample %d", i)
		}
	}
}
