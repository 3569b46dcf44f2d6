package stats

import (
	"math"
	"slices"
)

// KDE is a Gaussian kernel density estimate over a sample — the smooth
// curve representation the paper uses to visualize every performance
// distribution (Figures 1, 3, 5, 9).
type KDE struct {
	sample    []float64
	Bandwidth float64
}

// SilvermanBandwidth returns Silverman's rule-of-thumb bandwidth
// 0.9 · min(σ, IQR/1.349) · n^{-1/5}, with fallbacks for degenerate
// samples (zero IQR or zero variance).
func SilvermanBandwidth(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: SilvermanBandwidth of empty sample")
	}
	return silverman(xs, SortedCopy(xs), StdDev(xs))
}

// silverman is SilvermanBandwidth with the IQR read from sorted, a
// sorted copy of xs, and σ = StdDev(xs) given.
func silverman(xs, sorted []float64, sigma float64) float64 {
	iqr := (quantileSorted(sorted, 0.75) - quantileSorted(sorted, 0.25)) / 1.349
	spread := sigma
	if iqr > 0 && iqr < spread {
		spread = iqr
	}
	if spread <= 0 {
		// Degenerate sample: fall back to a sliver of the magnitude so
		// the KDE stays well-defined.
		m := math.Abs(Mean(xs))
		if m == 0 {
			m = 1
		}
		spread = 1e-3 * m
	}
	return 0.9 * spread * math.Pow(float64(len(xs)), -0.2)
}

// NewKDE builds a KDE with Silverman's bandwidth.
func NewKDE(xs []float64) *KDE {
	return NewKDEWithBandwidth(xs, SilvermanBandwidth(xs))
}

// SampleModes counts the modes of xs the way the figures and the served
// responses do: a Silverman-bandwidth KDE on a 512-point grid, maxima
// above a tenth of the peak. A zero-variance sample counts as one mode.
// sorted is a sorted copy of xs (see SortedCopy), used only for the
// IQR; xs itself must stay in sample order, because σ and the density
// grid sum its terms in that order. Otherwise the result equals
// NewKDE(xs).CountModes(512, 0.1), without copying xs.
func SampleModes(xs, sorted []float64) int {
	if len(xs) == 0 {
		panic("stats: SampleModes of empty sample")
	}
	sigma := StdDev(xs)
	if sigma == 0 {
		return 1
	}
	k := KDE{sample: xs, Bandwidth: silverman(xs, sorted, sigma)}
	return k.CountModes(512, 0.1)
}

// NewKDEWithBandwidth builds a KDE with an explicit bandwidth (> 0).
func NewKDEWithBandwidth(xs []float64, bw float64) *KDE {
	if len(xs) == 0 {
		panic("stats: NewKDE of empty sample")
	}
	if bw <= 0 {
		panic("stats: KDE bandwidth must be positive")
	}
	return &KDE{sample: append([]float64(nil), xs...), Bandwidth: bw}
}

const invSqrt2Pi = 0.3989422804014327

// At evaluates the density estimate at x.
func (k *KDE) At(x float64) float64 {
	var s float64
	//lint:allow floatcheck both constructors reject non-positive bandwidths
	inv := 1 / k.Bandwidth
	for _, xi := range k.sample {
		u := (x - xi) * inv
		s += math.Exp(-0.5*u*u) * invSqrt2Pi
	}
	return s * inv / float64(len(k.sample))
}

// Evaluate computes the density on every point of grid.
func (k *KDE) Evaluate(grid []float64) []float64 {
	out := make([]float64, len(grid))
	for i, x := range grid {
		out[i] = k.At(x)
	}
	return out
}

// Support returns a plotting range [lo, hi] that covers the sample plus
// three bandwidths of margin on each side.
func (k *KDE) Support() (lo, hi float64) {
	lo, hi = MinMax(k.sample)
	return lo - 3*k.Bandwidth, hi + 3*k.Bandwidth
}

// kdeCutoff is the half-width, in bandwidths, of the window over which
// CountModes scatters each sample's kernel.
const kdeCutoff = 10

// CountModes estimates the number of modes of the density by evaluating
// it on a grid of gridN points and counting strict local maxima above
// relThreshold × the global maximum. It is used by the simulator's tests
// and by the experiment reports to check that predicted distributions
// recover multi-modality (one of the paper's qualitative claims).
//
// The grid is filled by scattering, not by calling At per point: each
// sample adds its kernel only to the grid points within ±10 bandwidths
// of it, so the cost is O(n·w) for a window of w points instead of
// O(n·gridN). Dropping the tails beyond the cutoff lowers the density
// at any grid point by at most exp(-50)·φ(0)/h. The grid's end points
// lie 3 bandwidths outside the extreme samples, so its peak is at
// least φ(3)/(n·h): the truncation error is at most n·exp(-45.5) ≈
// n·1.7e-20 of the peak however coarse the grid. The kernel
// recurrence adds rounding below 1e-13 of the peak. An 8-bandwidth
// cutoff is not enough: when one far outlier makes the grid see only
// kernel tails, its error reaches 3e-12 of the peak.
func (k *KDE) CountModes(gridN int, relThreshold float64) int {
	lo, hi := k.Support()
	if gridN < 8 {
		gridN = 8
	}
	step := (hi - lo) / float64(gridN-1)
	ys := k.gridDensity(lo, step, gridN)
	threshold := relThreshold * slices.Max(ys)
	modes := 0
	for i := 1; i < gridN-1; i++ {
		if ys[i] > ys[i-1] && ys[i] >= ys[i+1] && ys[i] >= threshold {
			modes++
		}
	}
	return modes
}

// gridDensity returns the density at lo + j·step for j in [0, n),
// truncating each kernel at kdeCutoff bandwidths. Along the grid the
// kernel g_j = exp(-u_j²/2), u_j = u_0 + j·d, obeys the exact
// recurrence g_{j+1} = g_j·r_j with r_{j+1} = r_j·exp(-d²), so each
// sample costs three math.Exp calls and a few multiplies per window
// point. The recurrence runs outward from the grid point nearest the
// sample, where the kernel is largest, so rounding compounds only
// where the kernel has already decayed.
func (k *KDE) gridDensity(lo, step float64, n int) []float64 {
	ys := make([]float64, n)
	//lint:allow floatcheck both constructors reject non-positive bandwidths
	inv := 1 / k.Bandwidth
	//lint:allow floatcheck Support widens the range by 6 bandwidths, so step > 0
	invStep := 1 / step
	d := step * inv
	decay := math.Exp(-d * d)
	half := 0.5 * d * d
	reach := kdeCutoff * k.Bandwidth
	for _, xi := range k.sample {
		jlo := max(int(math.Ceil((xi-reach-lo)*invStep)), 0)
		jhi := min(int(math.Floor((xi+reach-lo)*invStep)), n-1)
		if jlo > jhi {
			continue
		}
		jc := min(max(int(math.Round((xi-lo)*invStep)), jlo), jhi)
		u := (lo + float64(jc)*step - xi) * inv
		g := math.Exp(-0.5 * u * u)
		ys[jc] += g
		// Upward: exp(-(u+d)²/2) = exp(-u²/2)·exp(-u·d - d²/2); downward
		// likewise with exp(u·d - d²/2). The two independent chains run
		// side by side while both are inside the window.
		gu, ru := g, math.Exp(-u*d-half)
		gd, rd := g, math.Exp(u*d-half)
		up, down := jc+1, jc-1
		for ; up <= jhi && down >= jlo; up, down = up+1, down-1 {
			gu *= ru
			ru *= decay
			ys[up] += gu
			gd *= rd
			rd *= decay
			ys[down] += gd
		}
		for ; up <= jhi; up++ {
			gu *= ru
			ru *= decay
			ys[up] += gu
		}
		for ; down >= jlo; down-- {
			gd *= rd
			rd *= decay
			ys[down] += gd
		}
	}
	scale := invSqrt2Pi * inv / float64(len(k.sample))
	for j := range ys {
		ys[j] *= scale
	}
	return ys
}
