package stats

import (
	"fmt"
	"math"

	"repro/internal/numeric"
)

// Mean returns the arithmetic mean of xs. It panics on an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Mean of empty slice")
	}
	return numeric.Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs.
// It returns 0 for slices of length < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the square root of the unbiased sample variance.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CentralMoment returns the k-th central moment (1/n)·Σ(x-mean)^k.
func CentralMoment(xs []float64, k int) float64 {
	if len(xs) == 0 {
		panic("stats: CentralMoment of empty slice")
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		s += math.Pow(x-m, float64(k))
	}
	return s / float64(len(xs))
}

// Skewness returns the standardized third central moment
// (population definition, g1 = m3 / m2^{3/2}), matching
// scipy.stats.skew with bias=True. Zero-variance data yields 0.
func Skewness(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Skewness of empty slice")
	}
	m2 := CentralMoment(xs, 2)
	if m2 <= 0 {
		return 0
	}
	m3 := CentralMoment(xs, 3)
	return m3 / math.Pow(m2, 1.5)
}

// Moments4 bundles the first four standardized moments of a sample in the
// exact form the paper's feature vectors and distribution representations
// use: mean, standard deviation, skewness, and (non-excess) kurtosis.
type Moments4 struct {
	Mean, Std, Skew, Kurt float64
}

// ComputeMoments4 computes all four moments of xs in a single pass over
// the centered data.
func ComputeMoments4(xs []float64) Moments4 {
	if len(xs) == 0 {
		panic("stats: ComputeMoments4 of empty slice")
	}
	m := Mean(xs)
	var s2, s3, s4 float64
	for _, x := range xs {
		d := x - m
		d2 := d * d
		s2 += d2
		s3 += d2 * d
		s4 += d2 * d2
	}
	n := float64(len(xs))
	m2 := s2 / n
	out := Moments4{Mean: m, Kurt: 3}
	if len(xs) >= 2 {
		out.Std = math.Sqrt(s2 / (n - 1))
	}
	if m2 > 0 {
		out.Skew = (s3 / n) / math.Pow(m2, 1.5)
		out.Kurt = (s4 / n) / (m2 * m2)
	}
	return out
}

// Vector returns the moments as a 4-element feature slice in the fixed
// order [mean, std, skew, kurt].
func (m Moments4) Vector() []float64 { return []float64{m.Mean, m.Std, m.Skew, m.Kurt} }

// Moments4FromVector reverses Vector. It panics unless len(v) == 4.
func Moments4FromVector(v []float64) Moments4 {
	if len(v) != 4 {
		panic(fmt.Sprintf("stats: Moments4FromVector needs 4 values, got %d", len(v)))
	}
	return Moments4{Mean: v[0], Std: v[1], Skew: v[2], Kurt: v[3]}
}

// Normalize returns xs scaled by 1/mean(xs) — the paper's "relative time"
// transform, which puts every benchmark's run-time distribution on a
// common scale with mean 1. It panics if the mean is zero.
func Normalize(xs []float64) []float64 {
	m := Mean(xs)
	if m == 0 {
		panic("stats: Normalize with zero mean")
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / m
	}
	return out
}
