package ml

import (
	"fmt"
	"math"
)

// Dataset is a design matrix X (rows = examples, columns = features)
// with multi-output targets Y (rows aligned with X).
type Dataset struct {
	X [][]float64
	Y [][]float64
	// FeatureNames optionally labels the columns of X (len == #features).
	FeatureNames []string
}

// NumExamples returns the number of rows.
func (d *Dataset) NumExamples() int { return len(d.X) }

// NumFeatures returns the number of input columns (0 if empty).
func (d *Dataset) NumFeatures() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// NumOutputs returns the number of target columns (0 if empty).
func (d *Dataset) NumOutputs() int {
	if len(d.Y) == 0 {
		return 0
	}
	return len(d.Y[0])
}

// Validate checks the dataset for shape consistency and non-finite
// values, returning a descriptive error on the first problem found.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("ml: X has %d rows but Y has %d", len(d.X), len(d.Y))
	}
	if len(d.X) == 0 {
		return fmt.Errorf("ml: empty dataset")
	}
	nf, no := len(d.X[0]), len(d.Y[0])
	if nf == 0 {
		return fmt.Errorf("ml: zero features")
	}
	if no == 0 {
		return fmt.Errorf("ml: zero outputs")
	}
	if d.FeatureNames != nil && len(d.FeatureNames) != nf {
		return fmt.Errorf("ml: %d feature names for %d features", len(d.FeatureNames), nf)
	}
	for i := range d.X {
		if len(d.X[i]) != nf {
			return fmt.Errorf("ml: row %d has %d features, want %d", i, len(d.X[i]), nf)
		}
		if len(d.Y[i]) != no {
			return fmt.Errorf("ml: row %d has %d outputs, want %d", i, len(d.Y[i]), no)
		}
		for j, v := range d.X[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ml: non-finite feature X[%d][%d] = %v", i, j, v)
			}
		}
		for j, v := range d.Y[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ml: non-finite target Y[%d][%d] = %v", i, j, v)
			}
		}
	}
	return nil
}

// Subset returns a dataset view with the given row indices (data shared,
// not copied).
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{
		X:            make([][]float64, len(idx)),
		Y:            make([][]float64, len(idx)),
		FeatureNames: d.FeatureNames,
	}
	for k, i := range idx {
		out.X[k] = d.X[i]
		out.Y[k] = d.Y[i]
	}
	return out
}

// Regressor is a trainable multi-output regression model. Fit must be
// called before Predict. Implementations are deterministic given their
// construction-time seed.
type Regressor interface {
	// Fit trains on the dataset. It must not retain references that the
	// caller subsequently mutates.
	Fit(d *Dataset) error
	// Predict returns the predicted output vector for one input row.
	Predict(x []float64) []float64
	// Name identifies the model family (for reports).
	Name() string
}

// MSE returns the mean squared error between prediction rows and target
// rows, averaged over all outputs and examples.
func MSE(pred, want [][]float64) float64 {
	if len(pred) != len(want) {
		panic(fmt.Sprintf("ml: MSE row mismatch %d vs %d", len(pred), len(want)))
	}
	var s float64
	var n int
	for i := range pred {
		for j := range pred[i] {
			d := pred[i][j] - want[i][j]
			s += d * d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
