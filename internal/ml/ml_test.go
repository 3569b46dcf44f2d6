package ml

import (
	"errors"
	"math"
	"testing"
)

func validSet() *Dataset {
	return &Dataset{
		X: [][]float64{{1, 2}, {3, 4}, {5, 6}},
		Y: [][]float64{{1}, {2}, {3}},
	}
}

func TestDatasetShape(t *testing.T) {
	d := validSet()
	if d.NumExamples() != 3 || d.NumFeatures() != 2 || d.NumOutputs() != 1 {
		t.Errorf("shape = (%d, %d, %d)", d.NumExamples(), d.NumFeatures(), d.NumOutputs())
	}
	empty := &Dataset{}
	if empty.NumFeatures() != 0 || empty.NumOutputs() != 0 {
		t.Error("empty dataset should report zero shape")
	}
}

func TestDatasetValidate(t *testing.T) {
	if err := validSet().Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	cases := []struct {
		name string
		d    *Dataset
	}{
		{"row mismatch", &Dataset{X: [][]float64{{1}}, Y: [][]float64{{1}, {2}}}},
		{"empty", &Dataset{}},
		{"zero features", &Dataset{X: [][]float64{{}}, Y: [][]float64{{1}}}},
		{"zero outputs", &Dataset{X: [][]float64{{1}}, Y: [][]float64{{}}}},
		{"ragged X", &Dataset{X: [][]float64{{1, 2}, {3}}, Y: [][]float64{{1}, {2}}}},
		{"ragged Y", &Dataset{X: [][]float64{{1}, {2}}, Y: [][]float64{{1}, {1, 2}}}},
		{"NaN feature", &Dataset{X: [][]float64{{math.NaN()}}, Y: [][]float64{{1}}}},
		{"Inf target", &Dataset{X: [][]float64{{1}}, Y: [][]float64{{math.Inf(1)}}}},
		{"bad names", &Dataset{X: [][]float64{{1}}, Y: [][]float64{{1}}, FeatureNames: []string{"a", "b"}}},
	}
	for _, c := range cases {
		if err := c.d.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestDatasetSubset(t *testing.T) {
	d := validSet()
	s := d.Subset([]int{2, 0})
	if s.NumExamples() != 2 {
		t.Fatalf("subset size = %d", s.NumExamples())
	}
	if s.X[0][0] != 5 || s.X[1][0] != 1 || s.Y[0][0] != 3 {
		t.Errorf("subset contents wrong: %v %v", s.X, s.Y)
	}
}

func TestMSE(t *testing.T) {
	pred := [][]float64{{1, 2}, {3, 4}}
	want := [][]float64{{1, 4}, {5, 4}}
	if got := MSE(pred, want); math.Abs(got-2) > 1e-12 { // (0+4+4+0)/4
		t.Errorf("MSE = %v, want 2", got)
	}
	if MSE(nil, nil) != 0 {
		t.Error("empty MSE should be 0")
	}
}

func TestStandardScaler(t *testing.T) {
	rows := [][]float64{{1, 10, 7}, {3, 20, 7}, {5, 30, 7}}
	s, err := FitScaler(rows)
	if err != nil {
		t.Fatal(err)
	}
	scaled := s.TransformAll(rows)
	// Column means must be ~0, population std ~1 (except constant col).
	for j := 0; j < 2; j++ {
		var mean, variance float64
		for i := range scaled {
			mean += scaled[i][j]
		}
		mean /= 3
		for i := range scaled {
			d := scaled[i][j] - mean
			variance += d * d
		}
		variance /= 3
		if math.Abs(mean) > 1e-12 || math.Abs(variance-1) > 1e-12 {
			t.Errorf("column %d: mean=%v var=%v", j, mean, variance)
		}
	}
	// Constant column: centered to zero, scale fallback 1.
	for i := range scaled {
		if scaled[i][2] != 0 {
			t.Errorf("constant column scaled to %v, want 0", scaled[i][2])
		}
	}
}

func TestFitScalerErrors(t *testing.T) {
	if _, err := FitScaler(nil); err == nil {
		t.Error("empty data should fail")
	}
	if _, err := FitScaler([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged data should fail")
	}
}

func TestTransformPanicsOnWrongLength(t *testing.T) {
	s, _ := FitScaler([][]float64{{1, 2}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Transform([]float64{1})
}

// TestSortColumns pins the presort's total order: value first, row
// index on ties, with −0 and +0 one tie group.
func TestSortColumns(t *testing.T) {
	negZero := math.Copysign(0, -1)
	X := [][]float64{
		{2, 0},
		{-1, negZero},
		{2, -3},
		{0.5, 0},
		{-1, negZero},
	}
	c := SortColumns(X)
	wantRows := [][]int32{{1, 4, 3, 0, 2}, {2, 0, 1, 3, 4}}
	for f, want := range wantRows {
		for k, i := range c.Rows[f] {
			if i != want[k] {
				t.Fatalf("Rows[%d] = %v, want %v", f, c.Rows[f], want)
			}
			if got := c.Vals[f][k]; math.Float64bits(got) != math.Float64bits(X[i][f]) {
				t.Fatalf("Vals[%d][%d] = %v, want X[%d][%d] = %v", f, k, got, i, f, X[i][f])
			}
		}
	}
}

// TestWireDecLenRejectsOverflow checks that a length prefix whose byte
// count overflows int is refused, not handed to make: 1<<61 eight-byte
// floats multiply to 0 and once passed the remaining-bytes bound.
func TestWireDecLenRejectsOverflow(t *testing.T) {
	var e WireEnc
	e.Int(1 << 61)
	e.F64(1)
	d := NewWireDec(e.Bytes())
	if got := d.Floats(); got != nil || !errors.Is(d.Err(), ErrWire) {
		t.Fatalf("Floats() = %d values, err %v; want ErrWire", len(got), d.Err())
	}
}
