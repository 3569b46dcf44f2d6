package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/distrep"
	"repro/internal/randx"
)

// freshAnswer decodes fm's output for its held-out row from scratch,
// the way decodeHoldout did on every request before models kept their
// answer.
func freshAnswer(fm *fittedModel, seed uint64) []float64 {
	return fm.data.rep.Decode(fm.reg.Predict(fm.data.dataset.X[fm.test]), len(fm.data.rel[fm.test]),
		randx.New(seed^0xD1B54A32D192ED03))
}

// residentModel returns the fitted model cached for k in cells.
func residentModel(t *testing.T, cells *sync.Map, k modelKey) *fittedModel {
	t.Helper()
	v, ok := cells.Load(k)
	if !ok || v.(*modelCell).fitted == nil {
		t.Fatalf("no fitted model for %s holdout %q", k.data.label(), k.holdout)
	}
	return v.(*modelCell).fitted
}

// requireBits fails unless got and want hold the same float64 bits.
func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: sample %d = %v, fresh decode %v", what, i, got[i], want[i])
		}
	}
}

// requireShared fails unless b answers from a's backing array and
// summary.
func requireShared(t *testing.T, what string, a, b *Prediction) {
	t.Helper()
	if &a.Predicted[0] != &b.Predicted[0] || a.PredictedSummary != b.PredictedSummary {
		t.Fatalf("%s: the answer was rebuilt instead of shared", what)
	}
}

// holdoutCase is one database-row request: a use case with its key.
type holdoutCase struct {
	name    string
	key     modelKey
	predict func(*Predictor) (*Prediction, error)
}

func uc1Case(sys, bench string, cfg UC1Config) holdoutCase {
	return holdoutCase{
		name: fmt.Sprintf("uc1/%s/seed=%d", cfg.Rep, cfg.Seed),
		key:  modelKey{data: datasetKey{useCase: 1, system: sys, uc1: cfg}, holdout: bench},
		predict: func(p *Predictor) (*Prediction, error) {
			return p.PredictUC1(context.Background(), sys, bench, cfg)
		},
	}
}

func uc2Case(src, dst, bench string, cfg UC2Config) holdoutCase {
	return holdoutCase{
		name: fmt.Sprintf("uc2/%s/seed=%d", cfg.Rep, cfg.Seed),
		key:  modelKey{data: datasetKey{useCase: 2, system: src, target: dst, uc2: cfg}, holdout: bench},
		predict: func(p *Predictor) (*Prediction, error) {
			return p.PredictUC2(context.Background(), src, dst, bench, cfg)
		},
	}
}

// TestHoldoutAnswerMatchesFreshDecode checks, for every decoder, both
// use cases and several seeds, that the served answer is bit-equal to
// a fresh decode of the fitted model, that its summary describes it,
// and that a second request shares both.
func TestHoldoutAnswerMatchesFreshDecode(t *testing.T) {
	db := robustCampaign(t)
	p := NewPredictor(db)
	bench := db.Systems[0].Benchmarks[3].Workload.ID()
	for _, rep := range distrep.KindsExtended() {
		for _, seed := range []uint64{1, 7, 42} {
			for _, c := range []holdoutCase{
				uc1Case("intel", bench, UC1Config{Rep: rep, Model: KNN, NumSamples: 10, Seed: seed}),
				uc2Case("amd", "intel", bench, UC2Config{Rep: rep, Model: KNN, Seed: seed}),
			} {
				first, err := c.predict(p)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				requireBits(t, c.name, first.Predicted, freshAnswer(residentModel(t, &p.models, c.key), seed))
				if want := NewSampleSummary(first.Predicted); !reflect.DeepEqual(first.PredictedSummary, want) {
					t.Fatalf("%s: summary %+v does not describe the answer (%+v)", c.name, first.PredictedSummary, want)
				}
				second, err := c.predict(p)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				requireShared(t, c.name, first, second)
			}
		}
	}
}

// TestHoldoutAnswerAfterRefit checks that a refit model answers
// afresh, and that a stale-served request answers from the stale
// model's own answer.
func TestHoldoutAnswerAfterRefit(t *testing.T) {
	db := robustCampaign(t)
	cfg := robustConfig()
	sd := db.Systems[0]
	bench := sd.Benchmarks[0].Workload.ID()
	c := uc1Case(sd.SystemName, bench, cfg)
	drift := func(p *Predictor) {
		t.Helper()
		for i := 1; i < len(sd.Benchmarks); i++ {
			b := &sd.Benchmarks[i]
			if err := p.SetBenchmarkRuns(sd.SystemName, b.Workload.ID(), widenRuns(b.Runs)); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("refit", func(t *testing.T) {
		p := NewPredictor(db)
		before, err := c.predict(p)
		if err != nil {
			t.Fatal(err)
		}
		drift(p)
		if err := p.RefitSystem(context.Background(), sd.SystemName); err != nil {
			t.Fatal(err)
		}
		after, err := c.predict(p)
		if err != nil {
			t.Fatal(err)
		}
		requireBits(t, "refit", after.Predicted, freshAnswer(residentModel(t, &p.models, c.key), cfg.Seed))
		if after.PredictedSummary == before.PredictedSummary || reflect.DeepEqual(after.Predicted, before.Predicted) {
			t.Fatal("the refit model answered with the old model's answer")
		}
	})

	t.Run("stale", func(t *testing.T) {
		p := NewPredictor(db)
		before, err := c.predict(p)
		if err != nil {
			t.Fatal(err)
		}
		drift(p)
		p.SetFitHook(func(FitInfo) error { return errors.New("refit outage") })
		if err := p.RefitSystem(context.Background(), sd.SystemName); err == nil {
			t.Fatal("failing fits must surface from RefitSystem")
		}
		after, err := c.predict(p)
		if err != nil {
			t.Fatal(err)
		}
		if after.Fallback != "stale" {
			t.Fatalf("fallback %q, want stale", after.Fallback)
		}
		v, ok := p.stale.Load(c.key)
		if !ok {
			t.Fatal("no stale model")
		}
		stale := v.(*fittedModel)
		if &after.Predicted[0] != &stale.predicted[0] || after.PredictedSummary != stale.predSum {
			t.Fatal("the stale-served answer is not the stale model's own")
		}
		requireShared(t, "stale", before, after)
	})

	t.Run("knn-fallback", func(t *testing.T) {
		p := NewPredictor(db)
		rf := cfg
		rf.Model = RandomForest
		fc := uc1Case(sd.SystemName, bench, rf)
		p.SetFitHook(func(info FitInfo) error {
			if info.Fallback {
				return nil
			}
			return errors.New("primary outage")
		})
		got, err := fc.predict(p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fallback != "knn" {
			t.Fatalf("fallback %q, want knn", got.Fallback)
		}
		requireBits(t, "knn fallback", got.Predicted, freshAnswer(residentModel(t, &p.fallbacks, fc.key), rf.Seed))
		again, err := fc.predict(p)
		if err != nil {
			t.Fatal(err)
		}
		requireShared(t, "knn fallback", got, again)
	})
}

// TestHoldoutAnswerConcurrentFirstUse sends the first eight requests
// for one key at once: the answer must be built once, so all eight
// share its backing array and summary.
func TestHoldoutAnswerConcurrentFirstUse(t *testing.T) {
	db := robustCampaign(t)
	p := NewPredictor(db)
	c := uc1Case("intel", db.Systems[0].Benchmarks[5].Workload.ID(), robustConfig())
	preds := make([]*Prediction, 8)
	errs := make([]error, len(preds))
	var wg sync.WaitGroup
	for g := range preds {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			preds[g], errs[g] = c.predict(p)
		}(g)
	}
	wg.Wait()
	for g := range preds {
		if errs[g] != nil {
			t.Fatalf("request %d: %v", g, errs[g])
		}
		requireShared(t, fmt.Sprintf("request %d", g), preds[0], preds[g])
	}
	requireBits(t, "concurrent", preds[0].Predicted, freshAnswer(residentModel(t, &p.models, c.key), c.key.data.uc1.Seed))
}

// TestHoldoutAnswerPerSeed checks that two configs that differ only
// in seed are two keys with two different answers.
func TestHoldoutAnswerPerSeed(t *testing.T) {
	db := robustCampaign(t)
	p := NewPredictor(db)
	bench := db.Systems[0].Benchmarks[2].Workload.ID()
	a, b := robustConfig(), robustConfig()
	a.Seed, b.Seed = 1, 2
	pa, err := uc1Case("intel", bench, a).predict(p)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := uc1Case("intel", bench, b).predict(p)
	if err != nil {
		t.Fatal(err)
	}
	if pa.PredictedSummary == pb.PredictedSummary || reflect.DeepEqual(pa.Predicted, pb.Predicted) {
		t.Fatal("configs that differ in seed got the same answer")
	}
}
