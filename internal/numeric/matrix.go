package numeric

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty matrix; use NewMatrix to allocate storage.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a Rows×Cols matrix of zeros.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("numeric: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "% .6g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ErrSingular is returned when a linear solve encounters an (effectively)
// singular matrix.
var ErrSingular = errors.New("numeric: singular matrix")

// SolveLinear solves A·x = b in place using LU decomposition with partial
// pivoting. A and b are destroyed; the solution is returned in a new slice.
// It returns ErrSingular when a pivot underflows relative tolerance.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("numeric: SolveLinear requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("numeric: SolveLinear dimension mismatch: matrix %dx%d, rhs length %d", n, n, len(b))
	}
	// Scaled partial pivoting for robustness on badly conditioned
	// moment (Hankel) systems produced by the max-entropy solver.
	scale := make([]float64, n)
	for i := 0; i < n; i++ {
		mx := 0.0
		for j := 0; j < n; j++ {
			if v := math.Abs(a.At(i, j)); v > mx {
				mx = v
			}
		}
		if mx == 0 {
			return nil, ErrSingular
		}
		scale[i] = 1 / mx
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for k := 0; k < n; k++ {
		// Select pivot row.
		p, best := k, -1.0
		for i := k; i < n; i++ {
			v := math.Abs(a.At(perm[i], k)) * scale[perm[i]]
			if v > best {
				best, p = v, i
			}
		}
		if best <= 1e-300 {
			return nil, ErrSingular
		}
		perm[k], perm[p] = perm[p], perm[k]
		pk := perm[k]
		piv := a.At(pk, k)
		for i := k + 1; i < n; i++ {
			pi := perm[i]
			f := a.At(pi, k) / piv
			a.Set(pi, k, f)
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				a.Set(pi, j, a.At(pi, j)-f*a.At(pk, j))
			}
		}
	}
	// Forward substitution on permuted rows.
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[perm[i]]
		for j := 0; j < i; j++ {
			s -= a.At(perm[i], j) * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= a.At(perm[i], j) * x[j]
		}
		piv := a.At(perm[i], i)
		if math.Abs(piv) <= 1e-300 {
			return nil, ErrSingular
		}
		x[i] = s / piv
	}
	return x, nil
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}
