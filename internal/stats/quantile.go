package stats

import "fmt"

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (NumPy's default "linear"
// method). xs need not be sorted; it is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: Quantile q=%v outside [0,1]", q))
	}
	return quantileSorted(SortedCopy(xs), q)
}

// quantileSorted computes the linear-interpolation quantile of an already
// sorted slice.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Quantiles returns the quantiles of xs at each probability in qs,
// sorting xs only once.
func Quantiles(xs []float64, qs []float64) []float64 {
	return QuantilesSorted(SortedCopy(xs), qs)
}

// QuantilesSorted is Quantiles for a sample that is already sorted
// ascending (see SortedCopy): it only interpolates, and returns the
// same bits as Quantiles on the unsorted sample. Unsorted input is not
// detected; it yields wrong quantiles.
func QuantilesSorted(sorted []float64, qs []float64) []float64 {
	if len(sorted) == 0 {
		panic("stats: Quantiles of empty slice")
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		if q < 0 || q > 1 {
			panic(fmt.Sprintf("stats: Quantiles q=%v outside [0,1]", q))
		}
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

// Median returns the 0.5 quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// MinMax returns the smallest and largest values of xs.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}
