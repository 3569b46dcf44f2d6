// Package maxent reconstructs a probability density from its first four
// raw moments using the principle of maximum entropy, mirroring the
// PyMaxEnt software the paper evaluates as its second distribution
// representation.
//
// Given raw moments μ0..μ4, the maximum-entropy density has the form
//
//	p(x) = exp(Σ_{j=0..4} λ_j·x^j),
//
// and ReconstructRaw finds the Lagrange multipliers λ the way PyMaxEnt
// does: in raw data coordinates on a fixed support, with an undamped
// Newton iteration whose Jacobian entries J_{kj} = ∫ x^{k+j}·p(x) dx are
// computed with fixed-order Gauss–Legendre quadrature.
package maxent

import (
	"errors"

	"repro/internal/numeric"
)

// ErrNoConverge is returned when the Newton iteration fails to reach the
// moment-matching tolerance. The 4-moment maximum-entropy problem is
// genuinely fragile for strongly non-Gaussian targets — a failure mode
// the paper observes as PyMaxEnt's lower accuracy.
var ErrNoConverge = errors.New("maxent: moment matching did not converge")

// Density is a reconstructed maximum-entropy density on a finite support.
type Density struct {
	// Lambda holds the Lagrange multipliers of exp(Σ λ_j·x^j).
	Lambda []float64
	// Lo, Hi bound the support used in the solve.
	Lo, Hi float64

	// Tabulated CDF in x for inverse-transform sampling.
	xGrid, cdf []float64
}

// Sample draws n values by inverse-transform sampling of the tabulated
// CDF. uniform must return values in [0, 1).
func (d *Density) Sample(n int, uniform func() float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = numeric.InverseMonotone(d.xGrid, d.cdf, uniform())
	}
	return out
}
