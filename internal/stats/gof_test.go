package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func twoSamples(seed uint64, n int, shift float64) (a, b []float64) {
	rng := rand.New(rand.NewPCG(seed, seed^0xDEAD))
	a = make([]float64, n)
	b = make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64() + shift
	}
	return a, b
}

func TestAndersonDarlingSameVsShifted(t *testing.T) {
	a, same := twoSamples(1, 3000, 0)
	_, shifted := twoSamples(2, 3000, 0.5)
	adSame := AndersonDarling(a, same)
	adShift := AndersonDarling(a, shifted)
	if adShift < 10*adSame {
		t.Errorf("AD not discriminating: same=%v shifted=%v", adSame, adShift)
	}
	if adSame < 0 {
		t.Errorf("AD of similar samples = %v, want >= 0", adSame)
	}
}

func TestAndersonDarlingTailSensitivity(t *testing.T) {
	// Two distributions equal in the body, different in the tail: AD
	// should flag them more strongly (relative to its same-distribution
	// level) than a body-only perturbation of the same KS size.
	rng := rand.New(rand.NewPCG(3, 4))
	n := 5000
	base := make([]float64, n)
	tailed := make([]float64, n)
	for i := range base {
		base[i] = rng.NormFloat64()
		v := rng.NormFloat64()
		if rng.Float64() < 0.02 {
			v += 6 // rare large excursion
		}
		tailed[i] = v
	}
	if ad := AndersonDarling(base, tailed); ad < 1 {
		t.Errorf("AD = %v, want to clearly flag a 2%% tail", ad)
	}
}

// cvm and energy run the sorted cores on unsorted samples.
func cvm(a, b []float64) float64 { return CramerVonMisesSorted(SortedCopy(a), SortedCopy(b)) }

func energy(a, b []float64) float64 { return EnergyDistanceSorted(SortedCopy(a), SortedCopy(b)) }

func TestCramerVonMisesBasics(t *testing.T) {
	a, same := twoSamples(5, 2000, 0)
	_, shifted := twoSamples(6, 2000, 0.4)
	tSame := cvm(a, same)
	tShift := cvm(a, shifted)
	if tShift < 10*math.Abs(tSame)+0.5 {
		t.Errorf("CvM not discriminating: same=%v shifted=%v", tSame, tShift)
	}
	// Symmetric in its arguments.
	if d1, d2 := cvm(a, shifted), cvm(shifted, a); math.Abs(d1-d2) > 1e-9 {
		t.Errorf("CvM not symmetric: %v vs %v", d1, d2)
	}
}

func TestEnergyDistanceProperties(t *testing.T) {
	a, same := twoSamples(7, 2000, 0)
	_, shifted := twoSamples(8, 2000, 1)
	eSame := energy(a, same)
	eShift := energy(a, shifted)
	if eSame < 0 || eShift < 0 {
		t.Fatalf("energy distance negative: %v %v", eSame, eShift)
	}
	if eShift < 20*eSame {
		t.Errorf("energy distance not discriminating: same=%v shifted=%v", eSame, eShift)
	}
	// Identical samples: exactly zero.
	xs := []float64{1, 2, 3, 4}
	if e := energy(xs, xs); e > 1e-12 {
		t.Errorf("energy distance of identical samples = %v", e)
	}
	// Shift-by-c: E|X−Y| grows, within terms unchanged: for unit masses
	// at 0 vs 1, D = 2·1 − 0 − 0 = 2.
	if e := energy([]float64{0, 0}, []float64{1, 1}); !almostEqual(e, 2, 1e-12) {
		t.Errorf("point-mass energy distance = %v, want 2", e)
	}
}

func TestEnergyDistanceMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	for trial := 0; trial < 10; trial++ {
		na, nb := 3+rng.IntN(20), 3+rng.IntN(20)
		a := make([]float64, na)
		b := make([]float64, nb)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64() * 2
		}
		got := energy(a, b)
		// Brute force O(n²).
		mean := func(xs, ys []float64) float64 {
			var s float64
			for _, x := range xs {
				for _, y := range ys {
					s += math.Abs(x - y)
				}
			}
			return s / float64(len(xs)*len(ys))
		}
		want := 2*mean(a, b) - mean(a, a) - mean(b, b)
		if want < 0 {
			want = 0
		}
		if !almostEqual(got, want, 1e-9) {
			t.Fatalf("trial %d: energy = %v, brute force = %v", trial, got, want)
		}
	}
}

func TestGoFPanicOnEmpty(t *testing.T) {
	for name, f := range map[string]func([]float64, []float64) float64{
		"AD":     AndersonDarling,
		"CvM":    CramerVonMisesSorted,
		"Energy": EnergyDistanceSorted,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on empty input", name)
				}
			}()
			f(nil, []float64{1})
		}()
	}
}

func TestBootstrapMeanCI(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = 10 + rng.NormFloat64()
	}
	lo, hi := BootstrapMeanCI(xs, 0.95, 500, rng.Float64)
	if !(lo < 10 && 10 < hi) {
		t.Errorf("CI [%v, %v] does not cover the true mean 10", lo, hi)
	}
	// Sanity: half-width close to 1.96/sqrt(400) ≈ 0.098.
	if hw := (hi - lo) / 2; hw < 0.05 || hw > 0.2 {
		t.Errorf("CI half-width = %v, expected ~0.1", hw)
	}
	// Larger samples tighten the interval.
	big := make([]float64, 6400)
	for i := range big {
		big[i] = 10 + rng.NormFloat64()
	}
	blo, bhi := BootstrapMeanCI(big, 0.95, 500, rng.Float64)
	if bhi-blo >= hi-lo {
		t.Errorf("CI did not tighten: %v vs %v", bhi-blo, hi-lo)
	}
}

func TestBootstrapMeanCIValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	for _, f := range []func(){
		func() { BootstrapMeanCI(nil, 0.95, 100, rng.Float64) },
		func() { BootstrapMeanCI([]float64{1}, 0, 100, rng.Float64) },
		func() { BootstrapMeanCI([]float64{1}, 1, 100, rng.Float64) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHalfWidthRel(t *testing.T) {
	if got := HalfWidthRel(9, 11); !almostEqual(got, 0.1, 1e-12) {
		t.Errorf("HalfWidthRel = %v, want 0.1", got)
	}
	if !math.IsInf(HalfWidthRel(-1, 1), 1) {
		t.Error("zero midpoint should yield +Inf")
	}
}
