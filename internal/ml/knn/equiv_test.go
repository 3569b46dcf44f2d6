package knn

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/ml"
	"repro/internal/randx"
)

// equivDataset builds a dense synthetic regression set large enough to
// exercise the blocked kernels' full 8-candidate blocks, the scalar
// remainder, and (on amd64) the padded vector blocks.
func equivDataset(seed uint64, n, p, q int) *ml.Dataset {
	rng := randx.New(seed)
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

// TestKNNKernelsBitIdentical drives every metric/weighting/standardize
// combination through the serving kernel — with and without the SIMD
// path where it exists — and requires each prediction to equal the
// pointer-free reference implementation bit for bit. This is the
// load-bearing equivalence test for the flattened kNN kernel.
//
// It mutates the package-level simdEnabled toggle, so it must not run
// in parallel with other tests in this package.
func TestKNNKernelsBitIdentical(t *testing.T) {
	defer func(v bool) { simdEnabled = v }(simdEnabled)
	for _, seed := range []uint64{1, 2, 3} {
		for _, metric := range []Metric{Cosine, Euclidean, Manhattan} {
			for _, weighting := range []Weighting{Uniform, Distance} {
				for _, standardize := range []bool{true, false} {
					name := fmt.Sprintf("seed=%d/%s/w=%d/std=%v", seed, metric, weighting, standardize)
					d := equivDataset(seed, 59, 37, 3)
					r := New(15)
					r.Metric = metric
					r.Weighting = weighting
					r.Standardize = standardize
					if err := r.Fit(d); err != nil {
						t.Fatal(err)
					}
					probe := equivDataset(seed^0xABCD, 13, 37, 3)
					for _, enabled := range []bool{true, false} {
						simdEnabled = enabled
						for i, x := range probe.X {
							got := r.Predict(x)
							want := r.predictReference(x)
							for j := range want {
								if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
									t.Fatalf("%s simd=%v probe %d out %d: kernel %v != reference %v",
										name, enabled, i, j, got[j], want[j])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestKNNPredictBatchIntoBitIdentical checks the pooled batch path
// (scratch reuse across rows) against per-row reference predictions.
func TestKNNPredictBatchIntoBitIdentical(t *testing.T) {
	d := equivDataset(7, 59, 41, 4)
	r := New(15)
	if err := r.Fit(d); err != nil {
		t.Fatal(err)
	}
	out := ml.NewMatrix(len(d.X), r.NumOutputs())
	// Twice: the second pass runs entirely on recycled scratch.
	for pass := 0; pass < 2; pass++ {
		r.PredictBatchInto(context.Background(), d.X, out)
		for i, x := range d.X {
			want := r.predictReference(x)
			for j := range want {
				if math.Float64bits(out[i][j]) != math.Float64bits(want[j]) {
					t.Fatalf("pass %d row %d out %d: batch %v != reference %v", pass, i, j, out[i][j], want[j])
				}
			}
		}
	}
}

// TestKNNMutatedKPanics pins the guard against a K field zeroed or
// negated after Fit: prediction must fail loudly instead of silently
// averaging zero neighbors.
func TestKNNMutatedKPanics(t *testing.T) {
	d := equivDataset(11, 16, 5, 2)
	for _, k := range []int{0, -3} {
		r := New(3)
		if err := r.Fit(d); err != nil {
			t.Fatal(err)
		}
		r.K = k
		func() {
			defer func() {
				msg, ok := recover().(string)
				if !ok {
					t.Fatalf("K=%d: Predict did not panic", k)
				}
				if !strings.Contains(msg, "K must be >= 1") {
					t.Fatalf("K=%d: panic message %q does not explain the guard", k, msg)
				}
			}()
			r.Predict(d.X[0])
		}()
	}
}

// TestKNNDecodeRejectsZeroK covers the codec-side guard for the same
// invariant: a wire buffer claiming K < 1 must not decode.
func TestKNNDecodeRejectsZeroK(t *testing.T) {
	d := equivDataset(13, 8, 4, 1)
	r := New(2)
	if err := r.Fit(d); err != nil {
		t.Fatal(err)
	}
	var e ml.WireEnc
	if err := r.AppendWire(&e); err != nil {
		t.Fatal(err)
	}
	buf := e.Bytes()
	// The wire layout starts with K as a varint-encoded int; rewrite it
	// by re-encoding with a corrupted K through the public API instead
	// of poking bytes: mutate, encode, restore.
	r.K = 0
	var bad ml.WireEnc
	if err := r.AppendWire(&bad); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeWire(ml.NewWireDec(bad.Bytes())); err == nil {
		t.Fatal("decode accepted K=0")
	}
	if _, err := DecodeWire(ml.NewWireDec(buf)); err != nil {
		t.Fatalf("decode of valid buffer failed: %v", err)
	}
}
