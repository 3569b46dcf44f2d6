package numeric

import (
	"fmt"
	"math"
	"sync"
)

// GaussLegendre returns the nodes and weights of the n-point
// Gauss–Legendre quadrature rule on [a, b].
//
// Nodes are computed by Newton iteration on the Legendre polynomial using
// the Chebyshev-point initial guess; this is accurate to machine precision
// for the rule sizes used in this repository (n ≤ a few hundred). The
// roots on [-1, 1] depend on n alone, so each n solves them once and
// later calls only map them to [a, b].
func GaussLegendre(n int, a, b float64) (nodes, weights []float64) {
	if n < 1 {
		panic(fmt.Sprintf("numeric: GaussLegendre needs n >= 1, got %d", n))
	}
	roots := legendreRootsFor(n)
	nodes = make([]float64, n)
	weights = make([]float64, n)
	xm := 0.5 * (b + a)
	xl := 0.5 * (b - a)
	for i, r := range roots {
		z, pp := r.z, r.pp
		nodes[i] = xm - xl*z
		nodes[n-1-i] = xm + xl*z
		w := 2 * xl / ((1 - z*z) * pp * pp)
		weights[i] = w
		weights[n-1-i] = w
	}
	return nodes, weights
}

// legendreRoot is one non-negative root z of the degree-n Legendre
// polynomial P_n and P_n'(z).
type legendreRoot struct{ z, pp float64 }

var legendreRoots sync.Map // n → []legendreRoot

// legendreRootsFor returns the (n+1)/2 non-negative roots of P_n in
// decreasing order, solving them on first use.
func legendreRootsFor(n int) []legendreRoot {
	if r, ok := legendreRoots.Load(n); ok {
		return r.([]legendreRoot)
	}
	r, _ := legendreRoots.LoadOrStore(n, solveLegendreRoots(n))
	return r.([]legendreRoot)
}

// solveLegendreRoots finds the non-negative roots of P_n by Newton
// iteration from the Chebyshev points.
func solveLegendreRoots(n int) []legendreRoot {
	roots := make([]legendreRoot, (n+1)/2)
	for i := range roots {
		// Initial guess: Chebyshev points.
		z := math.Cos(math.Pi * (float64(i) + 0.75) / (float64(n) + 0.5))
		var pp float64
		for iter := 0; iter < 100; iter++ {
			p1, p2 := 1.0, 0.0
			for j := 0; j < n; j++ {
				p3 := p2
				p2 = p1
				p1 = ((2*float64(j)+1)*z*p2 - float64(j)*p3) / float64(j+1)
			}
			pp = float64(n) * (z*p1 - p2) / (z*z - 1)
			z1 := z
			z = z1 - p1/pp
			if math.Abs(z-z1) < 1e-15 {
				break
			}
		}
		roots[i] = legendreRoot{z, pp}
	}
	return roots
}

// Simpson integrates f on [a, b] with n subintervals (n is rounded up to
// the next even number). It is used as an independent cross-check of the
// Gauss–Legendre rules in tests and for cheap CDF tabulation.
func Simpson(f func(float64) float64, a, b float64, n int) float64 {
	if n < 2 {
		n = 2
	}
	if n%2 == 1 {
		n++
	}
	h := (b - a) / float64(n)
	s := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			s += 4 * f(x)
		} else {
			s += 2 * f(x)
		}
	}
	return s * h / 3
}

// CumTrapezoid returns the running trapezoid integral of ys over xs,
// starting at 0. The result has the same length as xs.
func CumTrapezoid(xs, ys []float64) []float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("numeric: CumTrapezoid length mismatch %d vs %d", len(xs), len(ys)))
	}
	out := make([]float64, len(xs))
	for i := 1; i < len(xs); i++ {
		out[i] = out[i-1] + 0.5*(ys[i]+ys[i-1])*(xs[i]-xs[i-1])
	}
	return out
}
