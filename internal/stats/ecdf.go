package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function built from a
// sample. The zero value is unusable; construct with NewECDF.
type ECDF struct {
	sorted []float64
}

// SortedCopy returns a copy of xs sorted ascending; xs is not modified.
// It is the one copy-and-sort behind every statistic in this package
// that needs order statistics. A caller that needs several of them on
// the same sample sorts once with SortedCopy and calls the *Sorted
// cores.
func SortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// NewECDF builds an empirical CDF from xs (copied and sorted).
func NewECDF(xs []float64) *ECDF {
	if len(xs) == 0 {
		panic("stats: NewECDF of empty sample")
	}
	return &ECDF{sorted: SortedCopy(xs)}
}

// At returns F(x) = P(X <= x), a step function in [0, 1].
func (e *ECDF) At(x float64) float64 {
	// Index of first element > x.
	i := sort.Search(len(e.sorted), func(k int) bool { return e.sorted[k] > x })
	return float64(i) / float64(len(e.sorted))
}

// Len returns the sample size behind the ECDF.
func (e *ECDF) Len() int { return len(e.sorted) }

// Sorted returns the underlying sorted sample (shared, do not mutate).
func (e *ECDF) Sorted() []float64 { return e.sorted }

// KSStatistic computes the two-sample Kolmogorov–Smirnov statistic
// D = sup_x |F1(x) - F2(x)| between samples a and b. This is the accuracy
// score the paper uses to compare predicted and measured distributions:
// 0 is a perfect match, 1 is maximal divergence.
//
// The merge-based implementation is exact and runs in O(n log n).
func KSStatistic(a, b []float64) float64 {
	return KSSorted(SortedCopy(a), SortedCopy(b))
}

// KSSorted is KSStatistic for samples sa and sb that are already sorted
// ascending (see SortedCopy). It only merges, in O(n+m), and returns
// the same bits as KSStatistic on the unsorted samples. Unsorted input
// is not detected; it yields a wrong statistic.
func KSSorted(sa, sb []float64) float64 {
	if len(sa) == 0 || len(sb) == 0 {
		panic("stats: KSStatistic needs non-empty samples")
	}
	na, nb := float64(len(sa)), float64(len(sb))
	var i, j int
	var d float64
	for i < len(sa) && j < len(sb) {
		x := math.Min(sa[i], sb[j])
		for i < len(sa) && sa[i] <= x {
			i++
		}
		for j < len(sb) && sb[j] <= x {
			j++
		}
		if diff := math.Abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}
	return d
}

// KSPValue returns the asymptotic two-sided p-value for a two-sample KS
// statistic d with sample sizes n and m, using the Kolmogorov limiting
// distribution Q(λ) = 2·Σ_{k>=1} (-1)^{k-1} e^{-2k²λ²}.
func KSPValue(d float64, n, m int) float64 {
	if d <= 0 {
		return 1
	}
	if d >= 1 {
		return 0
	}
	ne := float64(n) * float64(m) / float64(n+m)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	var sum float64
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k*k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}

// KSAgainstCDF computes the one-sample KS statistic between sample xs and
// a reference CDF evaluated by cdf. Used in tests to validate samplers
// against analytic distributions.
func KSAgainstCDF(xs []float64, cdf func(float64) float64) float64 {
	if len(xs) == 0 {
		panic("stats: KSAgainstCDF needs a non-empty sample")
	}
	s := SortedCopy(xs)
	n := float64(len(s))
	var d float64
	for i, x := range s {
		f := cdf(x)
		lo := math.Abs(f - float64(i)/n)
		hi := math.Abs(float64(i+1)/n - f)
		if lo > d {
			d = lo
		}
		if hi > d {
			d = hi
		}
	}
	return d
}

// Wasserstein1 computes the 1-Wasserstein (earth mover's) distance
// between two equal-weight samples. It complements the KS statistic in
// our extended evaluation: KS is sup-norm, W1 is area between CDFs.
func Wasserstein1(a, b []float64) float64 {
	return Wasserstein1Sorted(SortedCopy(a), SortedCopy(b))
}

// Wasserstein1Sorted is Wasserstein1 for samples sa and sb that are
// already sorted ascending (see SortedCopy). It only merges, in
// O(n+m), and returns the same bits as Wasserstein1 on the unsorted
// samples. Unsorted input is not detected; it yields a wrong distance.
func Wasserstein1Sorted(sa, sb []float64) float64 {
	if len(sa) == 0 || len(sb) == 0 {
		panic("stats: Wasserstein1 needs non-empty samples")
	}
	// Integrate |F_a - F_b| over the merged support.
	na, nb := float64(len(sa)), float64(len(sb))
	i, j := 0, 0
	var prev float64
	first := true
	var dist, fa, fb float64
	for i < len(sa) || j < len(sb) {
		var x float64
		switch {
		case i >= len(sa):
			x = sb[j]
		case j >= len(sb):
			x = sa[i]
		default:
			x = math.Min(sa[i], sb[j])
		}
		if !first {
			dist += math.Abs(fa-fb) * (x - prev)
		}
		for i < len(sa) && sa[i] <= x {
			i++
		}
		for j < len(sb) && sb[j] <= x {
			j++
		}
		fa, fb = float64(i)/na, float64(j)/nb
		prev, first = x, false
	}
	return dist
}
