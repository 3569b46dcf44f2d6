package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestECDFBasic(t *testing.T) {
	e := NewECDF([]float64{3, 1, 2})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 1.0 / 3}, {1.5, 1.0 / 3}, {2, 2.0 / 3}, {3, 1}, {4, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); !almostEqual(got, c.want, 1e-14) {
			t.Errorf("ECDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.Len() != 3 {
		t.Errorf("Len = %d, want 3", e.Len())
	}
}

func TestECDFTies(t *testing.T) {
	e := NewECDF([]float64{2, 2, 2, 5})
	if got := e.At(2); !almostEqual(got, 0.75, 1e-14) {
		t.Errorf("ECDF at tie = %v, want 0.75", got)
	}
}

func TestECDFMonotone(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	e := NewECDF(xs)
	prev := -1.0
	for x := -4.0; x <= 4.0; x += 0.05 {
		f := e.At(x)
		if f < prev {
			t.Fatalf("ECDF decreased at %v", x)
		}
		if f < 0 || f > 1 {
			t.Fatalf("ECDF(%v) = %v outside [0,1]", x, f)
		}
		prev = f
	}
}

func TestKSIdenticalSamples(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := KSStatistic(xs, xs); got != 0 {
		t.Errorf("KS of identical samples = %v, want 0", got)
	}
}

func TestKSDisjointSamples(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 11, 12}
	if got := KSStatistic(a, b); got != 1 {
		t.Errorf("KS of disjoint samples = %v, want 1", got)
	}
}

func TestKSKnownValue(t *testing.T) {
	// a = {1,2,3,4}, b = {3,4,5,6}: max CDF gap is at x in [2,3): F_a=0.5, F_b=0 -> D=0.5.
	a := []float64{1, 2, 3, 4}
	b := []float64{3, 4, 5, 6}
	if got := KSStatistic(a, b); !almostEqual(got, 0.5, 1e-14) {
		t.Errorf("KS = %v, want 0.5", got)
	}
}

func TestKSSymmetric(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	for trial := 0; trial < 20; trial++ {
		na, nb := 5+rng.IntN(100), 5+rng.IntN(100)
		a := make([]float64, na)
		b := make([]float64, nb)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64() + 0.5
		}
		if d1, d2 := KSStatistic(a, b), KSStatistic(b, a); !almostEqual(d1, d2, 1e-14) {
			t.Fatalf("KS not symmetric: %v vs %v", d1, d2)
		}
	}
}

func TestKSMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 52))
	for trial := 0; trial < 30; trial++ {
		na, nb := 2+rng.IntN(30), 2+rng.IntN(30)
		a := make([]float64, na)
		b := make([]float64, nb)
		for i := range a {
			a[i] = math.Round(rng.NormFloat64()*4) / 2 // induce ties
		}
		for i := range b {
			b[i] = math.Round(rng.NormFloat64()*4) / 2
		}
		got := KSStatistic(a, b)
		// Brute force: evaluate |F_a - F_b| at every sample point.
		ea, eb := NewECDF(a), NewECDF(b)
		var want float64
		for _, x := range append(append([]float64(nil), a...), b...) {
			if d := math.Abs(ea.At(x) - eb.At(x)); d > want {
				want = d
			}
		}
		if !almostEqual(got, want, 1e-12) {
			t.Fatalf("trial %d: KS = %v, brute force = %v", trial, got, want)
		}
	}
}

func TestKSSameDistributionSmall(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 62))
	a := make([]float64, 2000)
	b := make([]float64, 2000)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	if d := KSStatistic(a, b); d > 0.08 {
		t.Errorf("KS of two big same-distribution samples = %v, expected small", d)
	}
}

func TestKSPValueRange(t *testing.T) {
	if p := KSPValue(0, 100, 100); p != 1 {
		t.Errorf("p(0) = %v, want 1", p)
	}
	if p := KSPValue(1, 100, 100); p != 0 {
		t.Errorf("p(1) = %v, want 0", p)
	}
	p1 := KSPValue(0.05, 1000, 1000)
	p2 := KSPValue(0.2, 1000, 1000)
	if !(p1 > p2) {
		t.Errorf("p-value should decrease with D: p(0.05)=%v p(0.2)=%v", p1, p2)
	}
	if p1 < 0 || p1 > 1 || p2 < 0 || p2 > 1 {
		t.Errorf("p-values out of range: %v %v", p1, p2)
	}
}

func TestWasserstein1Known(t *testing.T) {
	// Point masses at 0 and at 1: W1 = 1.
	if got := Wasserstein1([]float64{0, 0}, []float64{1, 1}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("W1 = %v, want 1", got)
	}
	// Identical samples: W1 = 0.
	xs := []float64{1, 5, 9}
	if got := Wasserstein1(xs, xs); got != 0 {
		t.Errorf("W1 of identical = %v, want 0", got)
	}
	// Shift by c shifts W1 by exactly c for equal-size samples.
	a := []float64{1, 2, 3, 4}
	b := []float64{1.5, 2.5, 3.5, 4.5}
	if got := Wasserstein1(a, b); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("W1 of shifted = %v, want 0.5", got)
	}
}

func TestWasserstein1Symmetric(t *testing.T) {
	a := []float64{0, 1, 3}
	b := []float64{2, 2, 5, 7}
	if d1, d2 := Wasserstein1(a, b), Wasserstein1(b, a); !almostEqual(d1, d2, 1e-12) {
		t.Errorf("W1 not symmetric: %v vs %v", d1, d2)
	}
}
