package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestMeanKnown(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1}, 1},
		{[]float64{1, 2, 3}, 2},
		{[]float64{-1, 1}, 0},
		{[]float64{2.5, 2.5, 2.5, 2.5}, 2.5},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEqual(got, c.want, 1e-14) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMeanPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mean(nil) did not panic")
		}
	}()
	Mean(nil)
}

func TestVarianceKnown(t *testing.T) {
	// Var([1..5], unbiased) = 2.5
	if got := Variance([]float64{1, 2, 3, 4, 5}); !almostEqual(got, 2.5, 1e-14) {
		t.Errorf("Variance = %v, want 2.5", got)
	}
	if got := Variance([]float64{7}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
	if got := Variance([]float64{4, 4, 4}); got != 0 {
		t.Errorf("Variance of constant = %v, want 0", got)
	}
}

func TestSkewnessSigns(t *testing.T) {
	rightSkewed := []float64{1, 1, 1, 1, 2, 2, 3, 10}
	leftSkewed := []float64{-10, -3, -2, -2, -1, -1, -1, -1}
	symmetric := []float64{-2, -1, 0, 1, 2}
	if Skewness(rightSkewed) <= 0 {
		t.Error("right-skewed sample has non-positive skewness")
	}
	if Skewness(leftSkewed) >= 0 {
		t.Error("left-skewed sample has non-negative skewness")
	}
	if got := Skewness(symmetric); !almostEqual(got, 0, 1e-12) {
		t.Errorf("symmetric sample skewness = %v, want 0", got)
	}
	if got := Skewness([]float64{5, 5, 5}); got != 0 {
		t.Errorf("constant sample skewness = %v, want 0", got)
	}
}

func TestKurtosisKnown(t *testing.T) {
	// Large normal sample: kurtosis (non-excess) should approach 3.
	rng := rand.New(rand.NewPCG(5, 6))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	if got := ComputeMoments4(xs).Kurt; math.Abs(got-3) > 0.1 {
		t.Errorf("normal kurtosis = %v, want ~3", got)
	}
	// Uniform sample: kurtosis = 9/5 = 1.8.
	for i := range xs {
		xs[i] = rng.Float64()
	}
	if got := ComputeMoments4(xs).Kurt; math.Abs(got-1.8) > 0.05 {
		t.Errorf("uniform kurtosis = %v, want ~1.8", got)
	}
	if got := ComputeMoments4([]float64{2, 2}).Kurt; got != 3 {
		t.Errorf("constant sample kurtosis = %v, want 3 by convention", got)
	}
}

func TestCentralMoments(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := CentralMoment(xs, 1); !almostEqual(got, 0, 1e-14) {
		t.Errorf("CentralMoment k=1 = %v, want 0", got)
	}
	if got := CentralMoment(xs, 2); !almostEqual(got, 1.25, 1e-14) {
		t.Errorf("CentralMoment k=2 = %v, want 1.25", got)
	}
}

func TestComputeMoments4MatchesIndividual(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.IntN(500)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()*float64(trial+1) + float64(trial)
		}
		m := ComputeMoments4(xs)
		if !almostEqual(m.Mean, Mean(xs), 1e-10) {
			t.Errorf("trial %d: Mean mismatch %v vs %v", trial, m.Mean, Mean(xs))
		}
		if !almostEqual(m.Std, StdDev(xs), 1e-10) {
			t.Errorf("trial %d: Std mismatch %v vs %v", trial, m.Std, StdDev(xs))
		}
		if !almostEqual(m.Skew, Skewness(xs), 1e-8) {
			t.Errorf("trial %d: Skew mismatch %v vs %v", trial, m.Skew, Skewness(xs))
		}
		m2 := CentralMoment(xs, 2)
		if kurt := CentralMoment(xs, 4) / (m2 * m2); !almostEqual(m.Kurt, kurt, 1e-8) {
			t.Errorf("trial %d: Kurt mismatch %v vs %v", trial, m.Kurt, kurt)
		}
	}
}

func TestMoments4VectorRoundTrip(t *testing.T) {
	m := Moments4{Mean: 1, Std: 2, Skew: -0.5, Kurt: 4.2}
	got := Moments4FromVector(m.Vector())
	if got != m {
		t.Errorf("round trip = %+v, want %+v", got, m)
	}
}

func TestNormalizeRelativeTime(t *testing.T) {
	xs := []float64{10, 20, 30}
	rel := Normalize(xs)
	if !almostEqual(Mean(rel), 1, 1e-14) {
		t.Errorf("normalized mean = %v, want 1", Mean(rel))
	}
	if !almostEqual(rel[0], 0.5, 1e-14) || !almostEqual(rel[2], 1.5, 1e-14) {
		t.Errorf("normalized values = %v", rel)
	}
}

// Property: mean is translation-equivariant and scale-equivariant.
func TestMeanAffineProperty(t *testing.T) {
	f := func(raw [6]float64, shift float64) bool {
		shift = math.Mod(shift, 100)
		xs := make([]float64, 6)
		for i := range xs {
			xs[i] = math.Mod(raw[i], 1000)
		}
		m := Mean(xs)
		shifted := make([]float64, len(xs))
		for i := range xs {
			shifted[i] = xs[i] + shift
		}
		return almostEqual(Mean(shifted), m+shift, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: skewness and kurtosis are invariant under positive affine maps.
func TestStandardizedMomentsAffineInvariant(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.IntN(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64())
		}
		a := 0.1 + rng.Float64()*10
		b := rng.NormFloat64() * 5
		ys := make([]float64, n)
		for i := range xs {
			ys[i] = a*xs[i] + b
		}
		if !almostEqual(Skewness(xs), Skewness(ys), 1e-7) {
			t.Errorf("trial %d: skewness not affine-invariant: %v vs %v", trial, Skewness(xs), Skewness(ys))
		}
		if kx, ky := ComputeMoments4(xs).Kurt, ComputeMoments4(ys).Kurt; !almostEqual(kx, ky, 1e-7) {
			t.Errorf("trial %d: kurtosis not affine-invariant: %v vs %v", trial, kx, ky)
		}
	}
}
