package pearson

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/numeric"
	"repro/internal/randx"
	"repro/internal/stats"
)

// type4SamplerOracle is type4Sampler as it was before the φ grid, log
// cos φ and tan φ moved into the shared type4Tables: every call builds
// its own grid and takes every logarithm and tangent afresh. The shared
// tables perform the same floating-point operations, so the two must
// agree bit for bit.
func type4SamplerOracle(skew, kurt float64) (func(*randx.RNG) float64, func(float64) float64, error) {
	b1 := skew * skew
	b2 := kurt
	denom := 2*b2 - 3*b1 - 6
	if denom <= 0 {
		return nil, nil, fmt.Errorf("pearson: type IV denominator %v <= 0", denom)
	}
	r := 6 * (b2 - b1 - 1) / denom
	if r <= 3 {
		return nil, nil, fmt.Errorf("pearson: type IV with r=%v <= 3 lacks a finite fourth moment", r)
	}
	inner := 16*(r-1) - b1*(r-2)*(r-2)
	if inner <= 0 {
		return nil, nil, fmt.Errorf("pearson: type IV scale term %v <= 0", inner)
	}
	nu := -r * (r - 2) * skew / math.Sqrt(inner)

	const gridN = 4097
	phis := numeric.Linspace(-math.Pi/2, math.Pi/2, gridN)
	logw := make([]float64, gridN)
	maxLog := math.Inf(-1)
	for i, phi := range phis {
		c := math.Cos(phi)
		if c <= 0 {
			logw[i] = math.Inf(-1)
			continue
		}
		logw[i] = r*math.Log(c) - nu*phi
		if logw[i] > maxLog {
			maxLog = logw[i]
		}
	}
	w := make([]float64, gridN)
	for i, lw := range logw {
		if math.IsInf(lw, -1) {
			w[i] = 0
			continue
		}
		w[i] = math.Exp(lw - maxLog)
	}
	cdf := numeric.CumTrapezoid(phis, w)
	z := cdf[gridN-1]
	if z <= 0 || math.IsNaN(z) {
		return nil, nil, fmt.Errorf("pearson: type IV density integrated to %v", z)
	}
	var m1, m2 float64
	for i := 1; i < gridN; i++ {
		dphi := phis[i] - phis[i-1]
		t0, t1 := math.Tan(phis[i-1]), math.Tan(phis[i])
		f0, f1 := w[i-1], w[i]
		if i == 1 {
			t0 = 0
		}
		if i == gridN-1 {
			t1 = 0
		}
		m1 += 0.5 * (f0*t0 + f1*t1) * dphi
		m2 += 0.5 * (f0*t0*t0 + f1*t1*t1) * dphi
	}
	m1 /= z
	m2 /= z
	variance := m2 - m1*m1
	if variance <= 0 || math.IsNaN(variance) {
		return nil, nil, fmt.Errorf("pearson: type IV variance %v invalid", variance)
	}
	sd := math.Sqrt(variance)

	sample := func(rng *randx.RNG) float64 {
		u := rng.Float64() * z
		phi := numeric.InverseMonotone(phis, cdf, u)
		phi = numeric.Clamp(phi, phis[0]+1e-12, phis[gridN-1]-1e-12)
		return (math.Tan(phi) - m1) / sd
	}
	pdf := func(zv float64) float64 {
		t := m1 + sd*zv
		phi := math.Atan(t)
		c := math.Cos(phi)
		if c <= 0 {
			return 0
		}
		lw := r*math.Log(c) - nu*phi - maxLog
		return math.Exp(lw) / z * c * c * sd
	}
	return sample, pdf, nil
}

// TestType4SharedGridMatchesOracle sweeps the type IV region of the
// (skew, kurt) plane, both signs of skew, and requires New's samples
// and densities to equal the oracle's bit for bit for several seeds.
func TestType4SharedGridMatchesOracle(t *testing.T) {
	cases := 0
	for _, skew := range []float64{-1.6, -0.7, -0.2, 0.05, 0.2, 0.5, 0.9, 1.3, 1.8, 2.4} {
		for _, kurt := range []float64{3.2, 3.6, 4.5, 5.8, 7, 9, 12, 20, 40} {
			target := stats.Moments4{Mean: 1, Std: 0.05, Skew: skew, Kurt: kurt}
			d, err := New(target)
			if err != nil || d.PType != TypeIV {
				continue
			}
			cases++
			oracle := *d
			oracle.sample, oracle.pdf, err = type4SamplerOracle(math.Abs(skew), kurt)
			if err != nil {
				t.Fatalf("oracle %v: %v", target, err)
			}
			for _, seed := range []uint64{1, 7, 42} {
				got := d.SampleN(randx.New(seed), 1000)
				want := oracle.SampleN(randx.New(seed), 1000)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("skew %v kurt %v seed %d: sample %d = %v, oracle %v", skew, kurt, seed, i, got[i], want[i])
					}
				}
			}
			for _, zv := range append(numeric.Linspace(-8, 8, 161), -60, 60) {
				x := target.Mean + target.Std*zv
				if g, w := d.PDF(x), oracle.PDF(x); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("skew %v kurt %v: PDF(%v) = %v, oracle %v", skew, kurt, x, g, w)
				}
			}
		}
	}
	t.Logf("%d type IV (skew, kurt) cases", cases)
	if cases < 30 {
		t.Fatalf("the sweep reached %d type IV cases, want at least 30", cases)
	}
}
