package numeric

import (
	"math"
	"math/rand/v2"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// fromRows builds a matrix from equal-length rows.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

func TestMatrixAtSet(t *testing.T) {
	m := NewMatrix(3, 4)
	m.Set(2, 3, 7.5)
	m.Set(0, 0, -1)
	if got := m.At(2, 3); got != 7.5 {
		t.Errorf("At(2,3) = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != -1 {
		t.Errorf("At(0,0) = %v, want -1", got)
	}
	if got := m.At(1, 1); got != 0 {
		t.Errorf("At(1,1) = %v, want 0", got)
	}
}

func TestMatrixClone(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestSolveLinearKnown(t *testing.T) {
	// 2x + y = 5; x - y = 1  =>  x = 2, y = 1
	a := fromRows([][]float64{{2, 1}, {1, -1}})
	x, err := SolveLinear(a, []float64{5, 1})
	if err != nil {
		t.Fatalf("SolveLinear: %v", err)
	}
	if !almostEqual(x[0], 2, 1e-12) || !almostEqual(x[1], 1, 1e-12) {
		t.Errorf("solution = %v, want [2 1]", x)
	}
}

func TestSolveLinearIdentity(t *testing.T) {
	n := 6
	a := NewMatrix(n, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
		b[i] = float64(i + 1)
	}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatalf("SolveLinear: %v", err)
	}
	for i := range x {
		if !almostEqual(x[i], float64(i+1), 1e-14) {
			t.Errorf("x[%d] = %v, want %d", i, x[i], i+1)
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Fatal("expected ErrSingular for rank-deficient matrix")
	}
}

func TestSolveLinearZeroRow(t *testing.T) {
	a := fromRows([][]float64{{0, 0}, {1, 1}})
	if _, err := SolveLinear(a, []float64{0, 1}); err == nil {
		t.Fatal("expected error for zero row")
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Zero pivot in the (0,0) position forces a row swap.
	a := fromRows([][]float64{{0, 1}, {1, 0}})
	x, err := SolveLinear(a, []float64{3, 4})
	if err != nil {
		t.Fatalf("SolveLinear: %v", err)
	}
	if !almostEqual(x[0], 4, 1e-14) || !almostEqual(x[1], 3, 1e-14) {
		t.Errorf("solution = %v, want [4 3]", x)
	}
}

// Property: for random well-conditioned systems, A·x reproduces b.
func TestSolveLinearRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.IntN(8)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonal dominance
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		orig := a.Clone()
		borig := append([]float64(nil), b...)
		x, err := SolveLinear(a, b)
		if err != nil {
			t.Fatalf("trial %d: SolveLinear: %v", trial, err)
		}
		back := mulVec(orig, x)
		for i := range back {
			if !almostEqual(back[i], borig[i], 1e-9) {
				t.Fatalf("trial %d: residual too large: A·x=%v, b=%v", trial, back, borig)
			}
		}
	}
}

func TestScale(t *testing.T) {
	y := []float64{3, 4, 5}
	Scale(0.5, y)
	if y[0] != 1.5 || y[2] != 2.5 {
		t.Errorf("Scale result = %v", y)
	}
}

// mulVec computes M·x, the residual check of the linear solves.
func mulVec(m *Matrix, x []float64) []float64 {
	y := make([]float64, m.Rows)
	for i := range y {
		for j, v := range m.Row(i) {
			y[i] += v * x[j]
		}
	}
	return y
}
