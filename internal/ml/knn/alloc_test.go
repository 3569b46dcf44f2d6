package knn

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/ml"
)

// knnBatchAllocBudget is the steady-state allocation budget of one
// PredictBatchInto call, whatever its row count: the row closure handed
// to parallel.ForEach (1 measured), plus one of slack. The per-row
// kernels make none, so a single allocation in any of them costs one
// per row and breaks the budget.
const knnBatchAllocBudget = 2

// allocProbe is a batch that reaches every branch of the row kernel:
// ordinary rows, an all-zero row and (when the model standardizes) the
// scaler's mean row, which both give the query a vanishing norm under
// the cosine metric, and a row with a NaN feature.
func allocProbe(r *Regressor, p int) [][]float64 {
	rows := equivDataset(0xA110C, 13, p, 1).X
	rows = append(rows, make([]float64, p))
	if r.Standardize {
		rows = append(rows, append([]float64(nil), r.scaler.Means...))
	}
	nan := append([]float64(nil), rows[0]...)
	nan[p/2] = math.NaN()
	return append(rows, nan)
}

// batchAllocs warms r's scratch pool, then measures allocations per
// PredictBatchInto call into a caller-owned matrix: the serving steady
// state.
func batchAllocs(r *Regressor, X [][]float64) float64 {
	ctx := context.Background()
	out := ml.NewMatrix(len(X), r.NumOutputs())
	for i := 0; i < 3; i++ {
		r.PredictBatchInto(ctx, X, out)
	}
	return testing.AllocsPerRun(20, func() { r.PredictBatchInto(ctx, X, out) })
}

// TestPredictBatchIntoAllocsEveryBranch holds every kernel branch to
// the batch budget: each Metric × Weighting × Standardize cell with
// the vector cosine kernel on and off, plus a model whose K exceeds
// the training rows. It is the allocation gate of the kNN serving
// path.
//
// It mutates the package-level simdEnabled toggle, so it must not run
// in parallel with other tests in this package.
func TestPredictBatchIntoAllocsEveryBranch(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector defeats sync.Pool caching; alloc counts are meaningless")
	}
	defer func(v bool) { simdEnabled = v }(simdEnabled)
	const n, p, q = 59, 37, 3
	check := func(name string, r *Regressor) {
		t.Helper()
		if err := r.Fit(equivDataset(1, n, p, q)); err != nil {
			t.Fatal(err)
		}
		for _, enabled := range []bool{true, false} {
			simdEnabled = enabled && hasAVX512
			got := batchAllocs(r, allocProbe(r, p))
			t.Logf("%s simd=%v: %.1f allocs per batch", name, simdEnabled, got)
			if got > knnBatchAllocBudget {
				t.Errorf("%s simd=%v: PredictBatchInto allocated %.1f times per batch, budget %d",
					name, simdEnabled, got, knnBatchAllocBudget)
			}
		}
	}
	for _, metric := range []Metric{Cosine, Euclidean, Manhattan} {
		for _, weighting := range []Weighting{Uniform, Distance} {
			for _, standardize := range []bool{true, false} {
				r := New(15)
				r.Metric = metric
				r.Weighting = weighting
				r.Standardize = standardize
				check(fmt.Sprintf("%s/w=%d/std=%v", metric, weighting, standardize), r)
			}
		}
	}
	check("k>n", New(n+21))
}
