package numeric

import (
	"math"
	"testing"
)

func TestGaussLegendreExactPolynomials(t *testing.T) {
	// An n-point rule integrates polynomials up to degree 2n-1 exactly.
	for _, n := range []int{1, 2, 3, 5, 10, 32} {
		nodes, weights := GaussLegendre(n, -1, 1)
		for deg := 0; deg <= 2*n-1; deg++ {
			got := integrate(func(x float64) float64 { return math.Pow(x, float64(deg)) }, nodes, weights)
			var want float64
			if deg%2 == 0 {
				want = 2 / float64(deg+1)
			}
			if !almostEqual(got, want, 1e-12) {
				t.Errorf("n=%d deg=%d: integral = %v, want %v", n, deg, got, want)
			}
		}
	}
}

func TestGaussLegendreWeightsSum(t *testing.T) {
	for _, n := range []int{1, 7, 64, 129} {
		_, weights := GaussLegendre(n, 2, 5)
		var s float64
		for _, w := range weights {
			s += w
		}
		if !almostEqual(s, 3, 1e-12) {
			t.Errorf("n=%d: weight sum = %v, want 3 (interval length)", n, s)
		}
	}
}

func TestGaussLegendreGaussianIntegral(t *testing.T) {
	nodes, weights := GaussLegendre(80, -8, 8)
	got := integrate(func(x float64) float64 {
		return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
	}, nodes, weights)
	if !almostEqual(got, 1, 1e-10) {
		t.Errorf("standard normal integrates to %v, want 1", got)
	}
}

func TestGaussLegendreNodesSorted(t *testing.T) {
	nodes, _ := GaussLegendre(33, 0, 1)
	for i := 1; i < len(nodes); i++ {
		if nodes[i] <= nodes[i-1] {
			t.Fatalf("nodes not strictly increasing at %d: %v <= %v", i, nodes[i], nodes[i-1])
		}
	}
	if nodes[0] <= 0 || nodes[len(nodes)-1] >= 1 {
		t.Errorf("nodes outside open interval: first=%v last=%v", nodes[0], nodes[len(nodes)-1])
	}
}

func TestSimpsonMatchesGauss(t *testing.T) {
	f := func(x float64) float64 { return math.Sin(x) * math.Exp(-x/3) }
	nodes, weights := GaussLegendre(60, 0, 4)
	gl := integrate(f, nodes, weights)
	sp := Simpson(f, 0, 4, 2000)
	if !almostEqual(gl, sp, 1e-8) {
		t.Errorf("Gauss=%v Simpson=%v disagree", gl, sp)
	}
}

func TestSimpsonOddNRoundsUp(t *testing.T) {
	got := Simpson(func(x float64) float64 { return x }, 0, 1, 3)
	if !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("Simpson with odd n = %v, want 0.5", got)
	}
}

func TestCumTrapezoid(t *testing.T) {
	xs := []float64{0, 1, 2, 4}
	ys := []float64{1, 1, 1, 1}
	cum := CumTrapezoid(xs, ys)
	want := []float64{0, 1, 2, 4}
	for i := range want {
		if !almostEqual(cum[i], want[i], 1e-12) {
			t.Errorf("cum[%d] = %v, want %v", i, cum[i], want[i])
		}
	}
}

// integrate applies a quadrature rule (nodes, weights) to f.
func integrate(f func(float64) float64, nodes, weights []float64) float64 {
	var s float64
	for i, x := range nodes {
		s += weights[i] * f(x)
	}
	return s
}
