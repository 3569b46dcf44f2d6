package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
)

// scatterModes is CountModes as it was before the certified pass: the
// scattered grid and the local-maximum rule. It is the oracle the
// certified count must equal exactly.
func scatterModes(k *KDE, gridN int, rel float64) int {
	lo, hi := k.Support()
	return countMaxima(k.gridDensity(lo, (hi-lo)/float64(gridN-1), gridN), rel)
}

// modeShapes draws one sample of every shape the certified count must
// handle from rng.
func modeShapes(rng *rand.Rand) map[string][]float64 {
	normal := func(n int, mu, sd float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = mu + sd*rng.NormFloat64()
		}
		return xs
	}
	lognormal := normal(1000, 0, 0.4)
	for i, x := range lognormal {
		lognormal[i] = math.Exp(x)
	}
	ties := normal(1000, 1, 0.05)
	for i, x := range ties {
		ties[i] = math.Round(x*40) / 40
	}
	half := normal(500, 0, 1)
	symmetric := append(half, half...)
	for i := range half {
		symmetric[500+i] = -half[i]
	}
	uniform := make([]float64, 1000)
	for i := range uniform {
		uniform[i] = rng.Float64()
	}
	n := 2 + rng.IntN(30)
	return map[string][]float64{
		"normal":        normal(1000, 1, 0.05),
		"lognormal":     lognormal,
		"close bimodal": append(normal(500, 0, 1), normal(500, 1.8, 1)...),
		"far bimodal":   append(normal(600, 0, 1), normal(400, 9, 1)...),
		"unequal modes": append(normal(900, 0, 1), normal(100, 4, 0.5)...),
		"far outlier":   append(normal(999, 1, 0.01), 1000),
		"heavy ties":    ties,
		"symmetric":     symmetric,
		"small n":       normal(n, 1, 0.1),
		"uniform":       uniform,
	}
}

// TestCountModesMatchesScatter is the certified count's contract: on
// every input it returns exactly the scatter's count, at both grids the
// repository uses. A single mismatch fails.
func TestCountModesMatchesScatter(t *testing.T) {
	grids := []struct {
		n   int
		rel float64
	}{{512, 0.1}, {1024, 0.08}}
	var branches [3]int
	for seed := uint64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewPCG(seed, 2*seed+1))
		shapes := modeShapes(rng)
		names := make([]string, 0, len(shapes))
		for name := range shapes {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			k := NewKDE(shapes[name])
			for _, g := range grids {
				got, branch := k.countModes(g.n, g.rel)
				branches[branch]++
				if want := scatterModes(k, g.n, g.rel); got != want {
					t.Errorf("seed %d %s (%d, %v): certified count %d (branch %d), scatter %d",
						seed, name, g.n, g.rel, got, branch, want)
				}
			}
		}
	}
	t.Logf("decided by pass (cheap, direct, scatter): %v", branches)
}

// TestCountModesBranches forces each of the certified count's three
// outcomes and checks the count against the scatter in each.
func TestCountModesBranches(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	half := make([]float64, 500)
	for i := range half {
		half[i] = rng.NormFloat64()
	}
	// A sample symmetric about 0 puts the peak exactly between grid
	// points 255 and 256: their sums tie, so no margin can separate
	// them and the scatter decides.
	symmetric := make([]float64, 0, 1001)
	for _, x := range half {
		symmetric = append(symmetric, x, -x)
	}
	// One more sample five bandwidths from the centre breaks the tie by
	// about 1e-8 of the peak: below the cheap pass's bound, far above
	// the direct margin.
	h := SilvermanBandwidth(symmetric)
	broken := append(append([]float64(nil), symmetric...), 5*h)
	cases := []struct {
		name string
		xs   []float64
		want modeBranch
	}{
		{"normal", half, branchCheap},
		{"tie broken by 1e-8", broken, branchDirect},
		{"exact tie", symmetric, branchScatter},
	}
	for _, c := range cases {
		k := NewKDE(c.xs)
		got, branch := k.countModes(512, 0.1)
		if branch != c.want {
			t.Errorf("%s: decided by branch %d, want %d", c.name, branch, c.want)
		}
		if want := scatterModes(k, 512, 0.1); got != want {
			t.Errorf("%s: certified count %d, scatter %d", c.name, got, want)
		}
	}
}

// TestCertifiedBoundHolds checks the error bound itself: at every grid
// point the cheap pass left undecided by a direct sum, its estimate
// lies within the bound of the exact kernel sum.
func TestCertifiedBoundHolds(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		shapes := modeShapes(rand.New(rand.NewPCG(seed, seed+7)))
		for name, xs := range shapes {
			k := NewKDE(xs)
			for _, g := range []int{512, 1024} {
				lo, hi := k.Support()
				step := (hi - lo) / float64(g-1)
				if step/k.Bandwidth > maxBinStep {
					continue
				}
				var s modeScratch
				s.certified(k.sample, k.Bandwidth, lo, step, g, 0.1)
				exact := make([]float64, g)
				peak := 0.0
				for m := range exact {
					exact[m], _ = directSum(k.sample, lo+float64(m)*step, 1/k.Bandwidth)
					peak = max(peak, exact[m])
				}
				worst := 0.0
				for m := range exact {
					if len(s.state) == g && s.state[m] == pointDirect {
						continue
					}
					bound := s.hw[m] - scatterDev*peak
					if err := math.Abs(s.est[m] - exact[m]); err > bound {
						t.Errorf("%s grid %d point %d: |estimate - exact| = %.3g > bound %.3g", name, g, m, err, bound)
					} else {
						worst = max(worst, err/bound)
					}
				}
				if testing.Verbose() {
					t.Logf("%s grid %d: worst error / bound = %.3f", name, g, worst)
				}
			}
		}
	}
}

// TestSortedCopyMatchesSort compares SortedCopy with sort.Float64s bit
// for bit, on samples above and below the radix-sort cut-off, with
// every class of float64 whose order a sort could get wrong.
func TestSortedCopyMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	negZero := math.Copysign(0, -1)
	special := []float64{
		0, negZero, math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000001),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1040,
		math.MaxFloat64, -math.MaxFloat64, 1, 1, -1, -1,
	}
	draw := func(n int, pool []float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			if len(pool) > 0 && rng.IntN(4) == 0 {
				xs[i] = pool[rng.IntN(len(pool))]
			} else {
				xs[i] = (rng.NormFloat64() + float64(rng.IntN(3))) * math.Pow(10, float64(rng.IntN(9)-4))
			}
		}
		return xs
	}
	var cases [][]float64
	for _, n := range []int{0, 1, 2, 63, 64, 65, 1000, 5000} {
		cases = append(cases,
			draw(n, nil),
			draw(n, special),
			draw(n, special[2:4]),  // ±Inf only: radix path
			draw(n, special[6:10]), // subnormals: radix path
			draw(n, special[:1]),   // +0 only: radix path
			draw(n, special[:2]),   // ±0: fallback
			draw(n, special[4:6]),  // NaNs: fallback
			draw(n, []float64{1, 2, 3}),
		)
	}
	for i, xs := range cases {
		orig := append([]float64(nil), xs...)
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		got := SortedCopy(xs)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("case %d (n=%d): index %d = %v (%#x), sort.Float64s gives %v (%#x)",
					i, len(xs), j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
			}
		}
		for j := range xs {
			if math.Float64bits(xs[j]) != math.Float64bits(orig[j]) {
				t.Fatalf("case %d: SortedCopy modified its input", i)
			}
		}
	}
}

// TestFFTMatchesDFT checks fft against the defining sum at every size
// from 1 to 1024, both stage layouts (odd and even log2 n) included,
// and the real-transform pair against the same sums.
func TestFFTMatchesDFT(t *testing.T) {
	dft := func(a []complex128) []complex128 {
		n := len(a)
		out := make([]complex128, n)
		for j := range out {
			for k, v := range a {
				s, c := math.Sincos(-2 * math.Pi * float64(j*k%n) / float64(n))
				out[j] += v * complex(c, s)
			}
		}
		return out
	}
	for n := 1; n <= 1024; n *= 2 {
		a := make([]complex128, n)
		for i := range a {
			a[i] = complex(math.Sin(float64(i*i)), math.Cos(float64(3*i)))
		}
		want := dft(a)
		got := append([]complex128(nil), a...)
		fft(got)
		for j := range want {
			if e := got[j] - want[j]; math.Hypot(real(e), imag(e)) > 1e-11*float64(n) {
				t.Fatalf("n=%d: bin %d = %v, DFT %v", n, j, got[j], want[j])
			}
		}
		if n < 4 {
			continue
		}
		// The real pair: v is a's real parts; realForward with unit
		// kernel gives v's transform, realInverse takes it back.
		m := n / 2
		x, y, ones := make([]complex128, m), make([]complex128, m+1), make([]float64, m+1)
		for i := range ones {
			ones[i] = 1
		}
		for j := range x {
			x[j] = complex(real(a[2*j]), real(a[2*j+1]))
		}
		realForward(y, x, ones)
		v := make([]complex128, n)
		for i := range v {
			v[i] = complex(real(a[i]), 0)
		}
		vt := dft(v)
		for f := 0; f <= m; f++ {
			if e := y[f] - vt[f]; math.Hypot(real(e), imag(e)) > 1e-11*float64(n) {
				t.Fatalf("n=%d: realForward bin %d = %v, DFT %v", n, f, y[f], vt[f])
			}
		}
		realInverse(x, y)
		for j := range x {
			// x[j] = m·(v[2j] - i·v[2j+1]).
			if e := complex(real(x[j]), -imag(x[j]))/complex(float64(m), 0) - complex(real(a[2*j]), real(a[2*j+1])); math.Hypot(real(e), imag(e)) > 1e-11*float64(n) {
				t.Fatalf("n=%d: realInverse pair %d = %v", n, j, x[j])
			}
		}
	}
}

// TestCountModesConcurrent runs counts and sorts on several goroutines
// at once, so the pooled scratch and the shared FFT plans are used
// concurrently, and checks each result against a sequential run.
func TestCountModesConcurrent(t *testing.T) {
	shapes := modeShapes(rand.New(rand.NewPCG(11, 12)))
	var samples [][]float64
	for _, xs := range shapes {
		samples = append(samples, xs)
	}
	want := make([]int, len(samples))
	for i, xs := range samples {
		want[i] = NewKDE(xs).CountModes(1024, 0.08)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for i := range samples {
					j := (i + g) % len(samples)
					if got := NewKDE(samples[j]).CountModes(1024, 0.08); got != want[j] {
						t.Errorf("goroutine %d sample %d: %d modes, sequential %d", g, j, got, want[j])
					}
					SortedCopy(samples[j])
				}
			}
		}(g)
	}
	wg.Wait()
}
