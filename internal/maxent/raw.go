package maxent

import (
	"fmt"
	"math"

	"repro/internal/numeric"
	"repro/internal/stats"
)

// RawMomentsFromMoments4 converts (mean, std, skew, kurt) to the raw
// moments E[x^0..x^4] that PyMaxEnt-style reconstruction consumes:
//
//	m1 = μ
//	m2 = σ² + μ²
//	m3 = γ1·σ³ + 3μσ² + μ³
//	m4 = β2·σ⁴ + 4μ·γ1·σ³ + 6μ²σ² + μ⁴
func RawMomentsFromMoments4(m stats.Moments4) [5]float64 {
	mu, s := m.Mean, m.Std
	c2 := s * s
	c3 := m.Skew * s * s * s
	c4 := m.Kurt * s * s * s * s
	return [5]float64{
		1,
		mu,
		c2 + mu*mu,
		c3 + 3*mu*c2 + mu*mu*mu,
		c4 + 4*mu*c3 + 6*mu*mu*c2 + mu*mu*mu*mu,
	}
}

// The solve's fixed settings: the Gauss–Legendre rule size, the Newton
// iteration budget, and the moment-residual tolerance (relative to the
// moment scale).
const (
	quadratureNodes = 96
	maxIter         = 200
	tol             = 1e-8
)

// ReconstructRaw reproduces the PyMaxEnt workflow faithfully: the
// maximum-entropy density exp(Σ λ_j·x^j) is solved in *raw* data
// coordinates on a caller-fixed support [lo, hi] with a fixed-order
// quadrature and an undamped Newton iteration from the Gaussian initial
// guess — exactly the regime the original package operates in.
//
// This fidelity matters: for performance distributions whose width is
// tiny relative to the shared support (a "needle" on [0.7, 1.7]), the
// fixed quadrature cannot resolve the density and the iteration fails
// or converges poorly. The paper's PyMaxEnt representation inherits
// exactly this weakness (its Figure 4/7 violins are the worst of the
// three representations); see internal/distrep.MaxEntRep for the
// fallback behavior on failure.
func ReconstructRaw(mu [5]float64, lo, hi float64) (*Density, error) {
	if !(hi > lo) {
		return nil, fmt.Errorf("maxent: invalid support [%v, %v]", lo, hi)
	}
	if math.Abs(mu[0]-1) > 1e-9 {
		return nil, fmt.Errorf("maxent: mu[0] must be 1 (got %v)", mu[0])
	}
	n := len(mu)
	nodes, weights := numeric.GaussLegendre(quadratureNodes, lo, hi)

	mean := mu[1]
	variance := mu[2] - mu[1]*mu[1]
	if variance <= 0 {
		return nil, fmt.Errorf("maxent: non-positive variance %v", variance)
	}
	lambda := make([]float64, n)
	lambda[0] = -mean*mean/(2*variance) - 0.5*math.Log(2*math.Pi*variance)
	lambda[1] = mean / variance
	lambda[2] = -1 / (2 * variance)

	evalP := func(lam []float64, x float64) float64 {
		e := lam[n-1]
		for j := n - 2; j >= 0; j-- {
			e = e*x + lam[j]
		}
		if e > 700 {
			return math.Inf(1)
		}
		return math.Exp(e)
	}
	moments := func(lam []float64) ([]float64, bool) {
		pm := make([]float64, 2*n-1)
		for i, x := range nodes {
			p := evalP(lam, x)
			if math.IsInf(p, 1) || math.IsNaN(p) {
				return nil, false
			}
			w := weights[i] * p
			xk := 1.0
			for k := range pm {
				pm[k] += w * xk
				xk *= x
			}
		}
		return pm, true
	}

	var pm []float64
	var ok bool
	converged := false
	for iter := 0; iter < maxIter; iter++ {
		pm, ok = moments(lambda)
		if !ok {
			return nil, ErrNoConverge
		}
		resid := make([]float64, n)
		var rnorm float64
		for k := 0; k < n; k++ {
			resid[k] = pm[k] - mu[k]
			if a := math.Abs(resid[k]); a > rnorm {
				rnorm = a
			}
		}
		// Tolerance is relative to the moment scale: raw moments of
		// relative time are all O(1).
		if rnorm < tol*(1+math.Abs(mu[n-1])) {
			converged = true
			break
		}
		jac := numeric.NewMatrix(n, n)
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				jac.Set(k, j, pm[k+j])
			}
		}
		rhs := make([]float64, n)
		for k := range rhs {
			rhs[k] = -resid[k]
		}
		step, err := numeric.SolveLinear(jac, rhs)
		if err != nil {
			return nil, fmt.Errorf("maxent: raw Newton singular: %w", err)
		}
		// Undamped full Newton step, as in the original solver.
		for j := range lambda {
			lambda[j] += step[j]
			if math.IsNaN(lambda[j]) || math.IsInf(lambda[j], 0) {
				return nil, ErrNoConverge
			}
		}
	}
	if !converged {
		return nil, ErrNoConverge
	}

	d := &Density{Lambda: lambda, Lo: lo, Hi: hi}
	const gridN = 2049
	d.xGrid = numeric.Linspace(lo, hi, gridN)
	pdf := make([]float64, gridN)
	for i, x := range d.xGrid {
		pdf[i] = evalP(lambda, x)
		if math.IsInf(pdf[i], 1) {
			return nil, ErrNoConverge
		}
	}
	d.cdf = numeric.CumTrapezoid(d.xGrid, pdf)
	total := d.cdf[gridN-1]
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return nil, ErrNoConverge
	}
	numeric.Scale(1/total, d.cdf)
	return d, nil
}
