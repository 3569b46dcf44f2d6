package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

type equivPair struct {
	name string
	a, b []float64
}

// equivPairs returns the sample pairs the sorted-core equivalence test
// runs on, each in a shuffled sample order: random samples of unequal
// lengths, the smallest sizes, heavy duplicates, values tied across the
// two samples, and one far outlier.
func equivPairs() []equivPair {
	rng := rand.New(rand.NewPCG(11, 12))
	normal := func(n int, mu, sd float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = mu + sd*rng.NormFloat64()
		}
		return xs
	}
	dupes := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 1 + 0.25*float64(rng.IntN(4))
		}
		return xs
	}
	shared := normal(200, 1, 0.1)
	pairs := []equivPair{
		{"unequal 137 vs 1000", normal(137, 1, 0.1), normal(1000, 1.02, 0.12)},
		{"unequal 1000 vs 61", normal(1000, 1, 0.05), normal(61, 0.9, 0.3)},
		{"n=1 vs n=1", []float64{1.5}, []float64{0.5}},
		{"n=1 vs n=2", []float64{1}, []float64{0.5, 2}},
		{"n=2 vs n=2", []float64{2, 1}, []float64{1, 3}},
		{"n=2 vs 50", []float64{1.1, 0.9}, normal(50, 1, 0.2)},
		{"heavy duplicates", dupes(400), dupes(333)},
		{"all equal", []float64{2, 2, 2, 2, 2}, []float64{2, 2, 2}},
		{"ties across samples",
			append(append([]float64(nil), shared[:120]...), normal(80, 1.1, 0.1)...),
			append(append([]float64(nil), shared[60:]...), normal(40, 0.95, 0.1)...)},
		{"far outlier", append(normal(999, 1, 0.05), 1e6), normal(1000, 1, 0.05)},
	}
	for _, p := range pairs {
		for _, xs := range [][]float64{p.a, p.b} {
			rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		}
	}
	return pairs
}

// cdfCounts returns how many values of a and of b are <= x.
func cdfCounts(a, b []float64, x float64) (i, j int) {
	for _, v := range a {
		if v <= x {
			i++
		}
	}
	for _, v := range b {
		if v <= x {
			j++
		}
	}
	return i, j
}

// support returns the distinct values of a and b, ascending.
func support(a, b []float64) []float64 {
	xs := append(append([]float64(nil), a...), b...)
	sort.Float64s(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// ksOracle evaluates both ECDFs by counting at every support point.
func ksOracle(a, b []float64) float64 {
	na, nb := float64(len(a)), float64(len(b))
	var d float64
	for _, x := range support(a, b) {
		i, j := cdfCounts(a, b, x)
		d = math.Max(d, math.Abs(float64(i)/na-float64(j)/nb))
	}
	return d
}

// w1Oracle integrates |Fa − Fb| between consecutive support points,
// left to right.
func w1Oracle(a, b []float64) float64 {
	na, nb := float64(len(a)), float64(len(b))
	xs := support(a, b)
	var dist float64
	for k := 1; k < len(xs); k++ {
		i, j := cdfCounts(a, b, xs[k-1])
		dist += math.Abs(float64(i)/na-float64(j)/nb) * (xs[k] - xs[k-1])
	}
	return dist
}

// silvermanOracle is Silverman's rule computed from the unsorted
// sample through the public IQR, as SilvermanBandwidth did before it
// took a sorted copy.
func silvermanOracle(xs []float64) float64 {
	spread := StdDev(xs)
	if iqr := IQR(xs) / 1.349; iqr > 0 && iqr < spread {
		spread = iqr
	}
	if spread <= 0 {
		m := math.Abs(Mean(xs))
		if m == 0 {
			m = 1
		}
		spread = 1e-3 * m
	}
	return 0.9 * spread * math.Pow(float64(len(xs)), -0.2)
}

// modesOracle is the guarded mode count the served response used
// before SampleModes existed.
func modesOracle(xs []float64) int {
	if StdDev(xs) == 0 {
		return 1
	}
	return NewKDE(xs).CountModes(512, 0.1)
}

func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s: %v (%#x), want %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestSortedCoresBitIdentical pins every sorted core to its public
// wrapper and, where one exists, to an independent brute-force oracle,
// bit for bit.
func TestSortedCoresBitIdentical(t *testing.T) {
	qs := []float64{0, 0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}
	for _, p := range equivPairs() {
		t.Run(p.name, func(t *testing.T) {
			a, b := p.a, p.b
			orig := append([]float64(nil), a...)
			sa, sb := SortedCopy(a), SortedCopy(b)
			if !sort.Float64sAreSorted(sa) || len(sa) != len(a) {
				t.Fatalf("SortedCopy did not sort: %v", sa)
			}

			ks := KSSorted(sa, sb)
			sameBits(t, "KSSorted vs KSStatistic", ks, KSStatistic(a, b))
			sameBits(t, "KSSorted vs oracle", ks, ksOracle(a, b))
			w1 := Wasserstein1Sorted(sa, sb)
			sameBits(t, "Wasserstein1Sorted vs Wasserstein1", w1, Wasserstein1(a, b))
			sameBits(t, "Wasserstein1Sorted vs oracle", w1, w1Oracle(a, b))
			sameBits(t, "CramerVonMisesSorted", CramerVonMisesSorted(sa, sb), CramerVonMises(a, b))
			sameBits(t, "EnergyDistanceSorted", EnergyDistanceSorted(sa, sb), EnergyDistance(a, b))

			got, want := QuantilesSorted(sa, qs), Quantiles(a, qs)
			for i, q := range qs {
				sameBits(t, fmt.Sprintf("QuantilesSorted q=%v", q), got[i], want[i])
				sameBits(t, fmt.Sprintf("Quantile q=%v", q), Quantile(a, q), want[i])
			}

			for side, xs := range [][]float64{a, b} {
				sorted := SortedCopy(xs)
				bw := silverman(xs, sorted, StdDev(xs))
				sameBits(t, fmt.Sprintf("silverman side %d vs SilvermanBandwidth", side), bw, SilvermanBandwidth(xs))
				sameBits(t, fmt.Sprintf("silverman side %d vs oracle", side), bw, silvermanOracle(xs))
				if got, want := SampleModes(xs, sorted), modesOracle(xs); got != want {
					t.Errorf("SampleModes side %d = %d, want %d", side, got, want)
				}
			}
			for i := range orig {
				if math.Float64bits(a[i]) != math.Float64bits(orig[i]) {
					t.Fatal("a sample statistic reordered its input")
				}
			}
		})
	}
}
