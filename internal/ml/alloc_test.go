package ml_test

import (
	"context"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/ml/knn"
	"repro/internal/ml/xgb"
)

// allocSteadyState warms pools with a few batch passes, then measures
// allocations per PredictBatchInto call with a caller-owned output
// matrix — the serving steady state.
func allocSteadyState(t *testing.T, r ml.Regressor) float64 {
	t.Helper()
	bi, ok := r.(ml.BatchIntoPredictor)
	if !ok {
		t.Fatalf("%T does not implement ml.BatchIntoPredictor", r)
	}
	d := uc1Shaped(1)
	ctx := context.Background()
	out := ml.NewMatrix(len(d.X), bi.NumOutputs())
	for i := 0; i < 3; i++ {
		bi.PredictBatchInto(ctx, d.X, out)
	}
	return testing.AllocsPerRun(10, func() {
		bi.PredictBatchInto(ctx, d.X, out)
	})
}

// TestPredictBatchIntoSteadyStateAllocs pins the zero-allocation
// contract of the flattened serving kernels: once scratch pools are
// warm, a whole 59-row batch through PredictBatchInto must not allocate
// on the prediction path. A small slack (2 allocs per batch; 1
// measured, the row closure handed to parallel.ForEach) absorbs the
// worker-pool bookkeeping; the per-row kernels themselves must stay at
// zero.
func TestPredictBatchIntoSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector defeats sync.Pool caching; alloc counts are meaningless")
	}
	d := uc1Shaped(1)
	models := []struct {
		name string
		fit  func() ml.Regressor
	}{
		{"knn", func() ml.Regressor { return knn.New(15) }},
		{"forest", func() ml.Regressor { return forest.New(forest.Config{NumTrees: 20, Seed: 1}) }},
		{"xgb", func() ml.Regressor { return xgb.New(xgb.Config{NumRounds: 20, MaxDepth: 3, Seed: 1}) }},
	}
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			r := m.fit()
			if err := r.Fit(d); err != nil {
				t.Fatal(err)
			}
			got := allocSteadyState(t, r)
			t.Logf("steady-state allocs per 59-row batch: %.1f", got)
			if got > 2 {
				t.Errorf("steady-state PredictBatchInto allocated %.1f times per 59-row batch, want <= 2", got)
			}
		})
	}
}
