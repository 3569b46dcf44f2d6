package ml

import (
	"context"
	"math"
	"testing"
)

// affine is a minimal deterministic Regressor for exercising the
// generic fan-out path.
type affine struct{}

func (affine) Fit(*Dataset) error { return nil }
func (affine) Name() string       { return "affine" }
func (affine) Predict(x []float64) []float64 {
	return []float64{2*x[0] + 1, math.Sin(x[0])}
}

func TestPredictBatchMatchesSequentialLoop(t *testing.T) {
	X := make([][]float64, 237) // deliberately not a multiple of the pool size
	for i := range X {
		X[i] = []float64{float64(i) * 0.1}
	}
	got := PredictBatch(context.Background(), affine{}, X)
	if len(got) != len(X) {
		t.Fatalf("got %d rows, want %d", len(got), len(X))
	}
	for i, x := range X {
		want := affine{}.Predict(x)
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("row %d output %d: %v != sequential %v", i, j, got[i][j], want[j])
			}
		}
	}
}

func TestPredictBatchSingleRowAndEmpty(t *testing.T) {
	got := PredictBatch(context.Background(), affine{}, [][]float64{{3}})
	if len(got) != 1 || got[0][0] != 7 {
		t.Fatalf("single-row batch = %v, want [[7 ...]]", got)
	}
	// Empty input short-circuits before span/pool dispatch and must
	// still return a non-nil, zero-length slice so callers can range
	// and json-encode it without nil checks.
	for _, X := range [][][]float64{nil, {}} {
		got := PredictBatch(context.Background(), affine{}, X)
		if got == nil {
			t.Fatalf("empty batch (X=%v) returned nil, want non-nil empty slice", X)
		}
		if len(got) != 0 {
			t.Fatalf("empty batch returned %d rows", len(got))
		}
	}
}
