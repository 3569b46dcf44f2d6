package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/ml"
	"repro/internal/randx"
)

// Steady-state allocation budgets of the serving inference path, as
// PredictUC1ProfileBatch and the single-row decoders run it.
const (
	// pooledBatchAllocBudget is one ml.PredictBatchInto call into a
	// MatrixPool matrix, Get and Put included: 1 for the model's row
	// closure handed to parallel.ForEach, 3 from context.WithoutCancel
	// and the span lookups through it, and 1 from MatrixPool.Put.
	pooledBatchAllocBudget = 5
	// rowPredictAllocBudget is one row-API Predict call: the returned
	// vector.
	rowPredictAllocBudget = 1
	// multiWorkerBatchAllocBudget is pooledBatchAllocBudget's call at
	// GOMAXPROCS 2, where parallel.ForEach runs two worker goroutines.
	// Measured 9.00-9.16 for RF and XGBoost and 9.00-9.35 for kNN, whose
	// pooled scratch refills after a GC empties it. Per batch:
	//   - 4 in parallel.ForEach's multi-worker path: the shared pool
	//     state, the one closure every worker runs, and
	//     context.WithCancel's context and cancel func;
	//   - 3 from context.WithoutCancel and the span lookups through it;
	//   - 1 for the model's row closure handed to ForEach;
	//   - 1 from MatrixPool.Put.
	multiWorkerBatchAllocBudget = 10
)

// allocDataset is a UC1-shaped training set: 59 benchmarks × 272
// features, four outputs (a PearsonRnd moment vector).
func allocDataset() *ml.Dataset {
	rng := randx.New(27)
	n, p, q := 59, 272, 4
	d := &ml.Dataset{X: make([][]float64, n), Y: make([][]float64, n)}
	for i := range d.X {
		d.X[i] = make([]float64, p)
		for j := range d.X[i] {
			d.X[i][j] = rng.StdNormal()
		}
		d.Y[i] = make([]float64, q)
		for j := range d.Y[i] {
			d.Y[i][j] = d.X[i][j] + 0.1*rng.StdNormal()
		}
	}
	return d
}

// fitServingModels fits every family newModel builds with the
// serving defaults.
func fitServingModels(t *testing.T, d *ml.Dataset) map[Model]ml.Regressor {
	t.Helper()
	out := make(map[Model]ml.Regressor)
	for _, m := range ModelsExtended() {
		r, err := newModel(m, 1, ModelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Fit(d); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		out[m] = r
	}
	return out
}

// TestPooledPredictBatchAllocs holds the batch entry point of every
// model family with a flattened kernel to its budget. The paper's
// three models must have one, so a family added to them is held to the
// same budget without a new test.
func TestPooledPredictBatchAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector defeats sync.Pool caching; alloc counts are meaningless")
	}
	d := allocDataset()
	models := fitServingModels(t, d)
	ctx := context.Background()
	for _, m := range ModelsExtended() {
		r := models[m]
		bi, ok := r.(ml.BatchIntoPredictor)
		if !ok {
			for _, paper := range Models() {
				if m == paper {
					t.Errorf("%s (%T) does not implement ml.BatchIntoPredictor", m, r)
				}
			}
			continue
		}
		var pool ml.MatrixPool
		run := func() {
			out := pool.Get(len(d.X), bi.NumOutputs())
			ml.PredictBatchInto(ctx, r, d.X, out)
			pool.Put(out)
		}
		for i := 0; i < 3; i++ {
			run()
		}
		got := testing.AllocsPerRun(20, run)
		t.Logf("%s: %.1f allocs per pooled %d-row batch", m, got, len(d.X))
		if got > pooledBatchAllocBudget {
			t.Errorf("%s: pooled ml.PredictBatchInto allocated %.1f times per batch, budget %d",
				m, got, pooledBatchAllocBudget)
		}
	}
}

// TestRowPredictAllocs holds the row API, which the holdout and
// single-profile decoders call once per request, to the returned
// vector alone for the paper's three models.
func TestRowPredictAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector defeats sync.Pool caching; alloc counts are meaningless")
	}
	d := allocDataset()
	models := fitServingModels(t, d)
	for _, m := range Models() {
		r := models[m]
		x := d.X[7]
		r.Predict(x)
		got := testing.AllocsPerRun(20, func() { r.Predict(x) })
		t.Logf("%s: %.1f allocs per row Predict", m, got)
		if got > rowPredictAllocBudget {
			t.Errorf("%s: Predict allocated %.1f times per row, budget %d", m, got, rowPredictAllocBudget)
		}
	}
}

// TestPooledPredictBatchMultiWorkerAllocs measures the pooled batch
// entry point as a multi-core server runs it. testing.AllocsPerRun pins
// GOMAXPROCS to 1, where parallel.ForEach takes its sequential path, so
// this test sets GOMAXPROCS to 2 and counts every goroutine's mallocs
// with runtime.ReadMemStats instead.
func TestPooledPredictBatchMultiWorkerAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector defeats sync.Pool caching; alloc counts are meaningless")
	}
	d := allocDataset()
	models := fitServingModels(t, d)
	ctx := context.Background()
	for _, m := range Models() {
		r := models[m]
		bi := r.(ml.BatchIntoPredictor)
		var pool ml.MatrixPool
		got := multiWorkerAllocs(2, 200, func() {
			out := pool.Get(len(d.X), bi.NumOutputs())
			ml.PredictBatchInto(ctx, r, d.X, out)
			pool.Put(out)
		})
		t.Logf("%s: %.2f allocs per pooled %d-row batch at GOMAXPROCS 2", m, got, len(d.X))
		if got > multiWorkerBatchAllocBudget {
			t.Errorf("%s: pooled ml.PredictBatchInto allocated %.2f times per batch at GOMAXPROCS 2, budget %d",
				m, got, multiWorkerBatchAllocBudget)
		}
	}
}

// multiWorkerAllocs returns the mean heap allocations of one fn call
// over runs calls at GOMAXPROCS procs, after warm-up calls that fill
// the pools.
func multiWorkerAllocs(procs, runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	for i := 0; i < 3; i++ {
		fn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
