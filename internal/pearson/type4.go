package pearson

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/numeric"
	"repro/internal/randx"
)

// type4Sampler builds a sampler for Pearson type IV, the only member of
// the system with no closed-form reduction to a standard family. Its
// standardized density is
//
//	f(t) ∝ (1 + t²)^(−m) · exp(−ν·atan(t)),
//
// with, following Heinrich's parameterization in terms of β1 = skew² and
// β2 = kurt,
//
//	r = 6(β2 − β1 − 1)/(2β2 − 3β1 − 6),   m = 1 + r/2,
//	ν = −r(r−2)·skew / sqrt(16(r−1) − β1(r−2)²).
//
// The substitution t = tan(φ) maps the real line onto (−π/2, π/2) where
// the density becomes w(φ) = cos^r(φ)·exp(−νφ) — bounded with compact
// support — so the CDF can be tabulated accurately on a uniform grid and
// sampled by inverse transform. Heavy t-tails are resolved automatically
// because they compress into the neighborhoods of ±π/2.
func type4Sampler(skew, kurt float64) (func(*randx.RNG) float64, func(float64) float64, error) {
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

	phis, logcos, tans := type4Tables()
	// Work in log space: exponents r·log(cos φ) − ν·φ can overflow for
	// extreme ν; shift by the maximum before exponentiating. w holds the
	// log weights until the second pass exponentiates them in place (a
	// −Inf log weight, where cos φ ≤ 0, becomes exactly 0).
	w := make([]float64, type4GridN)
	maxLog := math.Inf(-1)
	for i, lc := range logcos {
		w[i] = r*lc - nu*phis[i]
		if w[i] > maxLog {
			maxLog = w[i]
		}
	}
	for i, lw := range w {
		w[i] = math.Exp(lw - maxLog)
	}
	cdf := numeric.CumTrapezoid(phis, w)
	z := cdf[type4GridN-1]
	if z <= 0 || math.IsNaN(z) {
		return nil, nil, fmt.Errorf("pearson: type IV density integrated to %v", z)
	}
	// First two moments of t = tan(φ) by quadrature; the integrands
	// sin·cos^(r−1) and sin²·cos^(r−2) vanish at the endpoints for r > 3.
	var m1, m2 float64
	for i := 1; i < type4GridN; i++ {
		dphi := phis[i] - phis[i-1]
		t0, t1 := tans[i-1], tans[i]
		f0, f1 := w[i-1], w[i]
		if i == 1 {
			t0 = 0 // endpoint weight is zero; avoid Inf·0
		}
		if i == type4GridN-1 {
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
		// Clamp a hair inside the support so tan stays finite.
		phi = numeric.Clamp(phi, phis[0]+1e-12, phis[type4GridN-1]-1e-12)
		return (math.Tan(phi) - m1) / sd
	}
	// Standardized density: f_std(zv) = sd·f_t(m1 + sd·zv), with the
	// t-space density recovered from the φ-space weight through
	// t = tan(φ): f_t(t) = w(φ)/z · cos²(φ).
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

// type4GridN is the number of points of the φ grid on which every type
// IV density is tabulated.
const type4GridN = 4097

// type4Grid holds the parts of the type IV tables that do not depend
// on (skew, kurt), built once for the process: the φ grid over
// [−π/2, π/2], log cos φ (−Inf where cos φ ≤ 0) and tan φ. Each sampler
// keeps a reference to phis; none of the three is ever written after
// the build.
var type4Grid struct {
	once               sync.Once
	phis, logcos, tans []float64
}

// type4Tables returns the shared grid, building it on first use.
func type4Tables() (phis, logcos, tans []float64) {
	g := &type4Grid
	g.once.Do(func() {
		g.phis = numeric.Linspace(-math.Pi/2, math.Pi/2, type4GridN)
		g.logcos = make([]float64, type4GridN)
		g.tans = make([]float64, type4GridN)
		for i, phi := range g.phis {
			g.logcos[i] = math.Inf(-1)
			if c := math.Cos(phi); c > 0 {
				g.logcos[i] = math.Log(c)
			}
			g.tans[i] = math.Tan(phi)
		}
	})
	return g.phis, g.logcos, g.tans
}
