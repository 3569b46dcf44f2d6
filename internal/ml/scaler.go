package ml

import (
	"fmt"
	"math"
)

// StandardScaler centers each feature to zero mean and scales it to unit
// variance, the preprocessing the paper applies before kNN so that no
// single perf-counter metric dominates the distance computation.
// Constant features are left centered but unscaled.
type StandardScaler struct {
	Means, Scales []float64
}

// FitScaler computes per-column statistics over rows.
func FitScaler(rows [][]float64) (*StandardScaler, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("ml: FitScaler on empty data")
	}
	nf := len(rows[0])
	s := &StandardScaler{
		Means:  make([]float64, nf),
		Scales: make([]float64, nf),
	}
	for _, r := range rows {
		if len(r) != nf {
			return nil, fmt.Errorf("ml: FitScaler ragged rows (%d vs %d)", len(r), nf)
		}
		for j, v := range r {
			s.Means[j] += v
		}
	}
	n := float64(len(rows))
	for j := range s.Means {
		s.Means[j] /= n
	}
	for _, r := range rows {
		for j, v := range r {
			d := v - s.Means[j]
			s.Scales[j] += d * d
		}
	}
	for j := range s.Scales {
		sd := math.Sqrt(s.Scales[j] / n)
		if sd <= 0 {
			sd = 1 // constant feature: center only
		}
		s.Scales[j] = sd
	}
	return s, nil
}

// Transform returns the scaled copy of one row.
func (s *StandardScaler) Transform(x []float64) []float64 {
	out := make([]float64, len(x))
	s.TransformInto(x, out)
	return out
}

// TransformInto scales one row into dst (len(x) == len(dst)), the
// allocation-free form the batch kernels use with pooled buffers. The
// scaled values are bit-identical to Transform.
func (s *StandardScaler) TransformInto(x, dst []float64) {
	if len(x) != len(s.Means) {
		panic(fmt.Sprintf("ml: Transform length %d, scaler has %d features", len(x), len(s.Means)))
	}
	if len(dst) != len(x) {
		panic(fmt.Sprintf("ml: TransformInto dst length %d, want %d", len(dst), len(x)))
	}
	for j, v := range x {
		//lint:allow floatcheck FitScaler pins zero-variance columns to scale 1, so every divisor is positive
		dst[j] = (v - s.Means[j]) / s.Scales[j]
	}
}

// TransformSumSqInto scales one row into dst like TransformInto and
// returns the sum of squares of the scaled values, accumulated in
// element order. Fusing the two lets the serial sum-of-squares chain
// overlap the divides instead of running as a separate latency-bound
// pass; the scaled values and the sum are bit-identical to calling
// TransformInto and accumulating dst[j]*dst[j] in a second loop.
func (s *StandardScaler) TransformSumSqInto(x, dst []float64) float64 {
	if len(x) != len(s.Means) {
		panic(fmt.Sprintf("ml: Transform length %d, scaler has %d features", len(x), len(s.Means)))
	}
	if len(dst) != len(x) {
		panic(fmt.Sprintf("ml: TransformInto dst length %d, want %d", len(dst), len(x)))
	}
	var sumsq float64
	for j, v := range x {
		//lint:allow floatcheck FitScaler pins zero-variance columns to scale 1, so every divisor is positive
		t := (v - s.Means[j]) / s.Scales[j]
		dst[j] = t
		sumsq += t * t
	}
	return sumsq
}

// TransformAll scales every row.
func (s *StandardScaler) TransformAll(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = s.Transform(r)
	}
	return out
}
