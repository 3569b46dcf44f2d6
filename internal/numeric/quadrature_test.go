package numeric

import (
	"math"
	"sync"
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

// newtonGaussLegendre is GaussLegendre as it was before the roots were
// cached: the Newton solve runs on every call. It is the oracle for
// TestGaussLegendreCachedMatchesNewton.
func newtonGaussLegendre(n int, a, b float64) (nodes, weights []float64) {
	nodes = make([]float64, n)
	weights = make([]float64, n)
	m := (n + 1) / 2
	xm := 0.5 * (b + a)
	xl := 0.5 * (b - a)
	for i := 0; i < m; i++ {
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
		nodes[i] = xm - xl*z
		nodes[n-1-i] = xm + xl*z
		w := 2 * xl / ((1 - z*z) * pp * pp)
		weights[i] = w
		weights[n-1-i] = w
	}
	return nodes, weights
}

// TestGaussLegendreCachedMatchesNewton checks that the cached roots
// give the Newton loop's nodes and weights bit for bit, on the first
// and on repeated calls, over several intervals.
func TestGaussLegendreCachedMatchesNewton(t *testing.T) {
	intervals := [][2]float64{{-1, 1}, {0, 1}, {0.7, 1.7}, {-8, 8}, {2, 5}, {1e-3, 3e4}}
	for _, n := range []int{1, 2, 3, 7, 96, 97, 200} {
		for rep := 0; rep < 2; rep++ {
			for _, iv := range intervals {
				gotN, gotW := GaussLegendre(n, iv[0], iv[1])
				wantN, wantW := newtonGaussLegendre(n, iv[0], iv[1])
				for i := range wantN {
					if math.Float64bits(gotN[i]) != math.Float64bits(wantN[i]) || math.Float64bits(gotW[i]) != math.Float64bits(wantW[i]) {
						t.Fatalf("n=%d on [%v, %v], call %d, point %d: (%v, %v), Newton loop (%v, %v)",
							n, iv[0], iv[1], rep+1, i, gotN[i], gotW[i], wantN[i], wantW[i])
					}
				}
			}
		}
	}
}

// TestGaussLegendreConcurrentFirstUse solves one rule size from several
// goroutines at once; every caller gets the Newton loop's rule.
func TestGaussLegendreConcurrentFirstUse(t *testing.T) {
	wantN, wantW := newtonGaussLegendre(131, 0.7, 1.7)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gotN, gotW := GaussLegendre(131, 0.7, 1.7)
			for i := range wantN {
				if gotN[i] != wantN[i] || gotW[i] != wantW[i] {
					t.Errorf("point %d: (%v, %v), Newton loop (%v, %v)", i, gotN[i], gotW[i], wantN[i], wantW[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
