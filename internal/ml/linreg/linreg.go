// Package linreg implements multi-output ridge regression (L2-penalized
// linear least squares, solved in closed form via the normal equations).
// It is not one of the paper's three models; it serves as the linear
// baseline in the extended model comparison, probing how much of the
// distribution-prediction problem is linear in the profile features.
package linreg

import (
	"fmt"

	"repro/internal/ml"
	"repro/internal/numeric"
)

// Regressor is a ridge regressor. Construct with New.
type Regressor struct {
	// Lambda is the L2 penalty (> 0 keeps the normal equations
	// well-posed when features outnumber examples, as they do here:
	// ~272 features vs ~59 training benchmarks).
	Lambda float64

	scaler  *ml.StandardScaler
	weights *numeric.Matrix // (features+?) the coefficient matrix, rows=features, cols=outputs
	bias    []float64
}

// New returns a ridge regressor with penalty lambda (defaulted to 1 if
// non-positive).
func New(lambda float64) *Regressor {
	if lambda <= 0 {
		lambda = 1
	}
	return &Regressor{Lambda: lambda}
}

// Name implements ml.Regressor.
func (r *Regressor) Name() string { return fmt.Sprintf("Ridge(lambda=%g)", r.Lambda) }

// Fit solves (XᵀX + λI)·W = XᵀY on standardized features with
// mean-centered outputs (the bias absorbs the output means).
func (r *Regressor) Fit(d *ml.Dataset) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("linreg: %w", err)
	}
	n := d.NumExamples()
	p := d.NumFeatures()
	q := d.NumOutputs()

	var err error
	r.scaler, err = ml.FitScaler(d.X)
	if err != nil {
		return fmt.Errorf("linreg: %w", err)
	}
	x := r.scaler.TransformAll(d.X)

	r.bias = make([]float64, q)
	for _, row := range d.Y {
		for j, v := range row {
			r.bias[j] += v
		}
	}
	for j := range r.bias {
		r.bias[j] /= float64(n)
	}

	// Gram matrix with ridge on the diagonal.
	gram := numeric.NewMatrix(p, p)
	for i := 0; i < n; i++ {
		xi := x[i]
		for a := 0; a < p; a++ {
			va := xi[a]
			if va == 0 {
				continue
			}
			row := gram.Row(a)
			for b := 0; b < p; b++ {
				row[b] += va * xi[b]
			}
		}
	}
	for a := 0; a < p; a++ {
		gram.Set(a, a, gram.At(a, a)+r.Lambda)
	}

	// Solve one system per output against XᵀY with centered targets.
	r.weights = numeric.NewMatrix(p, q)
	for j := 0; j < q; j++ {
		rhs := make([]float64, p)
		for i := 0; i < n; i++ {
			yc := d.Y[i][j] - r.bias[j]
			for a, va := range x[i] {
				rhs[a] += va * yc
			}
		}
		sol, err := numeric.SolveLinear(gram.Clone(), rhs)
		if err != nil {
			return fmt.Errorf("linreg: output %d: %w", j, err)
		}
		for a := 0; a < p; a++ {
			r.weights.Set(a, j, sol[a])
		}
	}
	return nil
}

// Predict implements ml.Regressor.
func (r *Regressor) Predict(x []float64) []float64 {
	if r.weights == nil {
		panic("linreg: Predict before Fit")
	}
	z := r.scaler.Transform(x)
	out := append([]float64(nil), r.bias...)
	for a, va := range z {
		if va == 0 {
			continue
		}
		row := r.weights.Row(a)
		for j := range out {
			out[j] += va * row[j]
		}
	}
	return out
}
