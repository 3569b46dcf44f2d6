package maxent

import (
	"errors"
	"math"
	"testing"

	"repro/internal/randx"
	"repro/internal/stats"
)

// at evaluates the reconstructed density at x; it is 0 outside the
// support.
func at(d *Density, x float64) float64 {
	if x < d.Lo || x > d.Hi {
		return 0
	}
	e := d.Lambda[len(d.Lambda)-1]
	for j := len(d.Lambda) - 2; j >= 0; j-- {
		e = e*x + d.Lambda[j]
	}
	return math.Exp(e)
}

// reconstruct solves the raw problem for m on the shared [0.7, 1.7]
// support the PyMaxEnt representation decodes on.
func reconstruct(t *testing.T, m stats.Moments4) *Density {
	t.Helper()
	d, err := ReconstructRaw(RawMomentsFromMoments4(m), 0.7, 1.7)
	if err != nil {
		t.Fatalf("ReconstructRaw(%+v): %v", m, err)
	}
	return d
}

func normalPDF(x, mean, std float64) float64 {
	z := (x - mean) / std
	return math.Exp(-z*z/2) / (std * math.Sqrt(2*math.Pi))
}

func TestReconstructGaussian(t *testing.T) {
	d := reconstruct(t, stats.Moments4{Mean: 1.2, Std: 0.1, Skew: 0, Kurt: 3})
	// The support spans ±5σ, so the reconstruction must match the
	// normal pdf.
	for _, x := range []float64{1.0, 1.1, 1.2, 1.25, 1.3, 1.4} {
		want := normalPDF(x, 1.2, 0.1)
		if got := at(d, x); math.Abs(got-want) > 2e-3*want+1e-6 {
			t.Errorf("density(%v) = %v, want %v", x, got, want)
		}
	}
}

// TestReconstructScaledShifted checks that the raw-coordinate solve is
// affine-equivariant: the same standardized shape at two locations and
// scales gives densities related by the change of variables.
func TestReconstructScaledShifted(t *testing.T) {
	a := reconstruct(t, stats.Moments4{Mean: 1.2, Std: 0.1, Skew: -0.5, Kurt: 2.8})
	b := reconstruct(t, stats.Moments4{Mean: 1.1, Std: 0.07, Skew: -0.5, Kurt: 2.8})
	for _, z := range []float64{-2, -1, 0, 0.5, 1, 2} {
		want := at(a, 1.2+0.1*z) * 0.1 / 0.07
		if got := at(b, 1.1+0.07*z); math.Abs(got-want) > 1e-3*want+1e-6 {
			t.Errorf("z=%v: density %v, want %v", z, got, want)
		}
	}
	if at(a, 0.5) != 0 || at(a, 2) != 0 {
		t.Error("density outside support must be 0")
	}
}

func TestReconstructMatchesMoments(t *testing.T) {
	targets := []stats.Moments4{
		{Mean: 1.2, Std: 0.1, Skew: 0, Kurt: 3},
		{Mean: 1.1, Std: 0.1, Skew: 0.8, Kurt: 3.5},
		{Mean: 1.2, Std: 0.1, Skew: -0.5, Kurt: 2.8},
		{Mean: 1.2, Std: 0.1, Skew: 0, Kurt: 2.2},
		{Mean: 1.3, Std: 0.1, Skew: 0.6, Kurt: 3.4},
	}
	r := randx.New(41)
	for _, target := range targets {
		d := reconstruct(t, target)
		xs := d.Sample(300000, r.Float64)
		got := stats.ComputeMoments4(xs)
		if math.Abs(got.Mean-target.Mean) > 0.02*(1+math.Abs(target.Mean)) {
			t.Errorf("%+v: mean = %v", target, got.Mean)
		}
		if math.Abs(got.Std-target.Std) > 0.05*target.Std+0.01 {
			t.Errorf("%+v: std = %v", target, got.Std)
		}
		if math.Abs(got.Skew-target.Skew) > 0.1+0.05*math.Abs(target.Skew) {
			t.Errorf("%+v: skew = %v", target, got.Skew)
		}
		if math.Abs(got.Kurt-target.Kurt) > 0.15*target.Kurt {
			t.Errorf("%+v: kurt = %v", target, got.Kurt)
		}
	}
}

func TestReconstructRawValidation(t *testing.T) {
	mu := RawMomentsFromMoments4(stats.Moments4{Mean: 1.2, Std: 0.1, Skew: 0, Kurt: 3})
	if _, err := ReconstructRaw(mu, 1.7, 1.7); err == nil {
		t.Error("empty support should fail")
	}
	if _, err := ReconstructRaw(mu, 1.7, 0.7); err == nil {
		t.Error("reversed support should fail")
	}
	bad := mu
	bad[0] = 2
	if _, err := ReconstructRaw(bad, 0.7, 1.7); err == nil {
		t.Error("mu[0] != 1 should fail")
	}
	flat := mu
	flat[2] = flat[1] * flat[1] // zero variance
	if _, err := ReconstructRaw(flat, 0.7, 1.7); err == nil {
		t.Error("zero variance should fail")
	}
	flat[2] -= 0.01 // negative variance
	if _, err := ReconstructRaw(flat, 0.7, 1.7); err == nil {
		t.Error("negative variance should fail")
	}
}

func TestReconstructInfeasibleFails(t *testing.T) {
	// kurt < skew²+1 cannot be matched by any density.
	mu := RawMomentsFromMoments4(stats.Moments4{Mean: 1.2, Std: 0.1, Skew: 2, Kurt: 2})
	if _, err := ReconstructRaw(mu, 0.7, 1.7); err == nil {
		t.Error("infeasible moments should not converge")
	}
}

// TestReconstructNeedleFails pins the fragility the paper's PyMaxEnt
// representation inherits: a distribution far narrower than the shared
// support defeats the fixed quadrature, and the solve reports it.
func TestReconstructNeedleFails(t *testing.T) {
	mu := RawMomentsFromMoments4(stats.Moments4{Mean: 1, Std: 0.01, Skew: 0.3, Kurt: 3.2})
	if _, err := ReconstructRaw(mu, 0.7, 1.7); !errors.Is(err, ErrNoConverge) {
		t.Errorf("needle target: err = %v, want ErrNoConverge", err)
	}
}

func TestDensityIntegratesToOne(t *testing.T) {
	d := reconstruct(t, stats.Moments4{Mean: 1.2, Std: 0.12, Skew: 0.6, Kurt: 3.4})
	// Trapezoid over the support.
	n := 4000
	var integral float64
	step := (d.Hi - d.Lo) / float64(n)
	for i := 0; i <= n; i++ {
		w := 1.0
		if i == 0 || i == n {
			w = 0.5
		}
		integral += w * at(d, d.Lo+float64(i)*step) * step
	}
	if math.Abs(integral-1) > 0.01 {
		t.Errorf("density integral = %v, want ~1", integral)
	}
}

func TestSampleWithinSupport(t *testing.T) {
	d := reconstruct(t, stats.Moments4{Mean: 1.0, Std: 0.05, Skew: 0, Kurt: 3})
	r := randx.New(99)
	for _, x := range d.Sample(10000, r.Float64) {
		if x < d.Lo || x > d.Hi {
			t.Fatalf("sample %v outside support [%v, %v]", x, d.Lo, d.Hi)
		}
	}
}

func TestSampleDeterministic(t *testing.T) {
	mu := RawMomentsFromMoments4(stats.Moments4{Mean: 1.1, Std: 0.15, Skew: 0.2, Kurt: 2.9})
	var runs [2][]float64
	for i := range runs {
		d, err := ReconstructRaw(mu, 0.7, 1.7)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = d.Sample(1000, randx.New(7).Float64)
	}
	for i := range runs[0] {
		if math.Float64bits(runs[0][i]) != math.Float64bits(runs[1][i]) {
			t.Fatalf("sample %d: %v then %v from the same seed", i, runs[0][i], runs[1][i])
		}
	}
}

// TestFourMomentReconstructionMissesTrimodalTarget pins a property
// behind PyMaxEnt's weakness in the paper: exp(quartic) has at most two
// local maxima, so no four-moment reconstruction can follow a sample
// with three sharp modes, and the KS distance stays substantial.
func TestFourMomentReconstructionMissesTrimodalTarget(t *testing.T) {
	r := randx.New(123)
	trimodal := make([]float64, 20000)
	for i := range trimodal {
		switch u := r.Float64(); {
		case u < 0.4:
			trimodal[i] = r.Normal(0.9, 0.01)
		case u < 0.7:
			trimodal[i] = r.Normal(1.05, 0.01)
		default:
			trimodal[i] = r.Normal(1.25, 0.01)
		}
	}
	d := reconstruct(t, stats.ComputeMoments4(trimodal))
	recon := d.Sample(20000, r.Float64)
	if ks := stats.KSStatistic(trimodal, recon); ks < 0.05 {
		t.Errorf("KS = %v; expected maxent to visibly miss a sharply trimodal target", ks)
	}
}
