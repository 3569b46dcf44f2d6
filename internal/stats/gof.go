package stats

import (
	"math"
	"sort"
)

// This file provides goodness-of-fit statistics beyond the paper's
// Kolmogorov–Smirnov score. They back the extension experiment asking
// whether the paper's conclusions (which representation and model win)
// are artifacts of the KS metric or hold under other divergences.

// AndersonDarling computes the two-sample Anderson–Darling statistic
// A² (Pettitt's form, without the small-sample continuity corrections).
// Relative to KS it up-weights disagreement in the distribution tails —
// exactly where performance-variability analyses care most.
func AndersonDarling(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		panic("stats: AndersonDarling needs non-empty samples")
	}
	n, m := len(a), len(b)
	total := n + m
	type tagged struct {
		v    float64
		from int // 0 = a, 1 = b
	}
	all := make([]tagged, 0, total)
	for _, v := range a {
		all = append(all, tagged{v, 0})
	}
	for _, v := range b {
		all = append(all, tagged{v, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	// A² = (1/(n m)) Σ_{k=1..N-1} (M_k·N − k·n)² / (k·(N−k)),
	// with M_k the count of a-values among the k smallest.
	var sum float64
	mk := 0
	for k := 1; k < total; k++ {
		if all[k-1].from == 0 {
			mk++
		}
		d := float64(mk*total - k*n)
		sum += d * d / float64(k*(total-k))
	}
	return sum / float64(n*m)
}

// CramerVonMisesSorted computes the two-sample Cramér–von Mises
// criterion T, an L2 distance between the empirical CDFs. It weighs the
// body of the distributions more evenly than KS's sup-norm. Samples sa
// and sb must already be sorted ascending (see SortedCopy): it merges
// them for the combined ranks instead of sorting. Unsorted input is not
// detected; it yields a wrong criterion.
func CramerVonMisesSorted(sa, sb []float64) float64 {
	if len(sa) == 0 || len(sb) == 0 {
		panic("stats: CramerVonMises needs non-empty samples")
	}
	n, m := float64(len(sa)), float64(len(sb))
	// Ranks of each sample in the combined ordering.
	combined := mergeSorted(sa, sb)
	rank := func(v float64) float64 {
		// Average rank across ties in the combined sample (1-based).
		lo := sort.SearchFloat64s(combined, v)
		hi := sort.Search(len(combined), func(i int) bool { return combined[i] > v })
		return float64(lo+hi+1) / 2
	}
	var u float64
	for i, v := range sa {
		dd := rank(v) - float64(i+1)
		u += dd * dd
	}
	uA := u * n
	u = 0
	for j, v := range sb {
		dd := rank(v) - float64(j+1)
		u += dd * dd
	}
	uB := u * m
	nm := n * m
	t := (uA + uB) / (nm * (n + m))
	return t - (4*nm-1)/(6*(n+m))
}

// mergeSorted merges two ascending samples into one new ascending
// slice.
func mergeSorted(sa, sb []float64) []float64 {
	out := make([]float64, 0, len(sa)+len(sb))
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		if sb[j] < sa[i] {
			out = append(out, sb[j])
			j++
		} else {
			out = append(out, sa[i])
			i++
		}
	}
	out = append(out, sa[i:]...)
	return append(out, sb[j:]...)
}

// EnergyDistanceSorted computes the (squared) energy distance
// 2·E|X−Y| − E|X−X'| − E|Y−Y'| between two samples using the
// closed-form expression over sorted samples. It is a proper metric on
// distributions and serves as a third cross-check divergence. Samples
// sa and sb must already be sorted ascending (see SortedCopy). Unsorted
// input is not detected; it yields a wrong distance.
func EnergyDistanceSorted(sa, sb []float64) float64 {
	if len(sa) == 0 || len(sb) == 0 {
		panic("stats: EnergyDistance needs non-empty samples")
	}
	meanPairwiseCross := crossMeanAbs(sa, sb)
	d := 2*meanPairwiseCross - meanPairwiseWithin(sa) - meanPairwiseWithin(sb)
	if d < 0 {
		d = 0 // numeric guard; the population quantity is non-negative
	}
	return d
}

// meanPairwiseWithin computes E|X−X'| for a sorted sample in O(n).
func meanPairwiseWithin(sorted []float64) float64 {
	n := len(sorted)
	if n < 2 {
		return 0
	}
	// Σ_{i<j}(x_j − x_i) = Σ_j x_j·(2j−n+1) over 0-based j.
	var s float64
	for j, v := range sorted {
		s += v * float64(2*j-n+1)
	}
	return 2 * s / float64(n*n)
}

// crossMeanAbs computes E|X−Y| for sorted samples in O(n+m).
func crossMeanAbs(sa, sb []float64) float64 {
	// For each element of sa, sum |v − y| over sb using prefix sums.
	prefix := make([]float64, len(sb)+1)
	for i, v := range sb {
		prefix[i+1] = prefix[i] + v
	}
	totalB := prefix[len(sb)]
	var s float64
	for _, v := range sa {
		k := sort.SearchFloat64s(sb, v)
		below := prefix[k]
		s += v*float64(k) - below + (totalB - below) - v*float64(len(sb)-k)
	}
	return s / float64(len(sa)*len(sb))
}

// BootstrapMeanCI returns a percentile bootstrap confidence interval for
// the mean of xs at the given confidence level (e.g. 0.95), using
// nResamples bootstrap replicates drawn with the provided uniform
// source. This is the resampling machinery behind the adaptive
// measurement-stopping rule (Maricq et al., cited by the paper).
func BootstrapMeanCI(xs []float64, confidence float64, nResamples int, uniform func() float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: BootstrapMeanCI of empty sample")
	}
	if confidence <= 0 || confidence >= 1 {
		panic("stats: confidence must be in (0,1)")
	}
	if nResamples < 10 {
		nResamples = 10
	}
	means := make([]float64, nResamples)
	n := len(xs)
	for r := range means {
		var s float64
		for i := 0; i < n; i++ {
			s += xs[int(uniform()*float64(n))]
		}
		means[r] = s / float64(n)
	}
	alpha := (1 - confidence) / 2
	qs := Quantiles(means, []float64{alpha, 1 - alpha})
	return qs[0], qs[1]
}

// HalfWidthRel returns the half-width of [lo, hi] relative to the
// midpoint magnitude; NaN-free for a zero midpoint.
func HalfWidthRel(lo, hi float64) float64 {
	mid := (lo + hi) / 2
	if mid == 0 {
		return math.Inf(1)
	}
	return math.Abs(hi-lo) / 2 / math.Abs(mid)
}
