package ml_test

import (
	"context"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/ml/knn"
	"repro/internal/ml/linreg"
	"repro/internal/ml/xgb"
	"repro/internal/obs"
	"repro/internal/randx"
)

// uc1Shaped builds a dataset shaped like the paper's use case 1:
// 59 training benchmarks, 272 profile features, 4 moment targets.
func uc1Shaped(seed uint64) *ml.Dataset { return uc1ShapedOutputs(seed, 4) }

// uc1ShapedOutputs is uc1Shaped with q targets; q = 50 is the
// Histogram decoder's bin count.
func uc1ShapedOutputs(seed uint64, q int) *ml.Dataset {
	rng := randx.New(seed)
	n, p := 59, 272
	d := &ml.Dataset{X: make([][]float64, n), Y: make([][]float64, n)}
	for i := range d.X {
		d.X[i] = make([]float64, p)
		for j := range d.X[i] {
			d.X[i][j] = rng.StdNormal()
		}
		d.Y[i] = make([]float64, q)
		for j := range d.Y[i] {
			d.Y[i][j] = d.X[i][j%p] + 0.1*rng.StdNormal()
		}
	}
	return d
}

func BenchmarkKNNFitPredict(b *testing.B) {
	d := uc1Shaped(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := knn.New(15)
		if err := r.Fit(d); err != nil {
			b.Fatal(err)
		}
		_ = r.Predict(d.X[0])
	}
}

func BenchmarkForestFit(b *testing.B) {
	d := uc1Shaped(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := forest.New(forest.Config{NumTrees: 20, Seed: 3})
		if err := f.Fit(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXGBFit(b *testing.B) {
	d := uc1Shaped(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := xgb.New(xgb.Config{NumRounds: 10, MaxDepth: 2, Seed: 4})
		if err := m.Fit(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXGBFitUC1 fits XGBoost with internal/core's configuration
// on the Histogram decoder's UC1 shape (50 outputs, one boosted
// ensemble each): the costliest fit a uc1_profile server warms.
// benchcheck guards it.
func BenchmarkXGBFitUC1(b *testing.B) {
	d := uc1ShapedOutputs(6, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := xgb.New(xgb.Config{
			NumRounds:    60,
			MaxDepth:     3,
			LearningRate: 0.12,
			Subsample:    0.9,
			ColSample:    0.8,
			Seed:         1,
		})
		if err := m.Fit(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestFitUC1 fits internal/core's 100-tree forest on the
// same 50-output shape. benchcheck guards it.
func BenchmarkForestFitUC1(b *testing.B) {
	d := uc1ShapedOutputs(6, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := forest.New(forest.Config{NumTrees: 100, Seed: 1})
		if err := f.Fit(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRidgeFit(b *testing.B) {
	d := uc1Shaped(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := linreg.New(10)
		if err := r.Fit(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictBatch is the tier-1 serving hot path: a fitted model
// pushed through the parallel batch predictor. benchcheck guards its
// ns/op against BENCH_baseline.json.
func BenchmarkPredictBatch(b *testing.B) {
	d := uc1Shaped(5)
	r := knn.New(15)
	if err := r.Fit(d); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := ml.PredictBatch(ctx, r, d.X); len(out) != len(d.X) {
			b.Fatal("short batch")
		}
	}
}

// BenchmarkPredictBatchForest covers the flattened forest kernel on
// the same UC1-shaped batch; benchcheck guards it alongside the kNN
// path so a regression in the node-table traversal can't hide behind
// the distance kernel.
func BenchmarkPredictBatchForest(b *testing.B) {
	d := uc1Shaped(5)
	r := forest.New(forest.Config{NumTrees: 50, Seed: 1})
	if err := r.Fit(d); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := ml.PredictBatch(ctx, r, d.X); len(out) != len(d.X) {
			b.Fatal("short batch")
		}
	}
}

// BenchmarkPredictBatchXGB covers the flattened boosted-ensemble
// kernel on the same batch shape.
func BenchmarkPredictBatchXGB(b *testing.B) {
	d := uc1Shaped(5)
	r := xgb.New(xgb.Config{NumRounds: 50, MaxDepth: 3, Seed: 1})
	if err := r.Fit(d); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := ml.PredictBatch(ctx, r, d.X); len(out) != len(d.X) {
			b.Fatal("short batch")
		}
	}
}

// BenchmarkPredictBatchTraced is the same path under an active obs
// trace — the pair quantifies the instrumentation overhead recorded in
// EXPERIMENTS.md (acceptance bar: <= 5%).
func BenchmarkPredictBatchTraced(b *testing.B) {
	d := uc1Shaped(5)
	r := knn.New(15)
	if err := r.Fit(d); err != nil {
		b.Fatal(err)
	}
	tracer := obs.NewTracer(obs.Config{BufferSize: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, span := tracer.Start(context.Background(), "bench.predict_batch")
		if out := ml.PredictBatch(ctx, r, d.X); len(out) != len(d.X) {
			b.Fatal("short batch")
		}
		span.End()
	}
}
