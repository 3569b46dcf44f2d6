package randx

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// moments computes the sample mean and variance for test assertions.
func moments(xs []float64) (mean, variance float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mean += x
	}
	mean /= n
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	variance /= n - 1
	return mean, variance
}

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := New(43)
	same := true
	a2 := New(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Float64() == c2.Float64() && c1.Float64() == c2.Float64() && c1.Float64() == c2.Float64() {
		t.Error("sibling splits look identical")
	}
	// Split is insensitive to parent consumption.
	p1 := New(7)
	_ = p1.Float64()
	_ = p1.Float64()
	d1 := p1.Split()
	p2 := New(7)
	e1 := p2.Split()
	for i := 0; i < 20; i++ {
		if d1.Float64() != e1.Float64() {
			t.Fatal("Split depends on parent consumption")
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := New(1)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(2)
	n := 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Normal(3, 2)
	}
	mean, variance := moments(xs)
	if math.Abs(mean-3) > 0.03 {
		t.Errorf("normal mean = %v, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Errorf("normal variance = %v, want ~4", variance)
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(3)
	n := 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Exponential(2)
		if v < 0 {
			t.Fatal("exponential variate negative")
		}
		sum += v
	}
	if mean := sum / float64(n); math.Abs(mean-0.5) > 0.01 {
		t.Errorf("exponential(rate=2) mean = %v, want ~0.5", mean)
	}
}

func TestGammaMoments(t *testing.T) {
	cases := []struct{ alpha, theta float64 }{
		{0.3, 1}, {0.9, 2}, {1, 1}, {2.5, 0.5}, {9, 3}, {50, 0.1},
	}
	r := New(4)
	n := 150000
	for _, c := range cases {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Gamma(c.alpha, c.theta)
			if xs[i] < 0 {
				t.Fatalf("gamma(%v,%v) variate negative", c.alpha, c.theta)
			}
		}
		mean, variance := moments(xs)
		wantMean := c.alpha * c.theta
		wantVar := c.alpha * c.theta * c.theta
		if math.Abs(mean-wantMean) > 0.05*wantMean+0.01 {
			t.Errorf("gamma(%v,%v) mean = %v, want ~%v", c.alpha, c.theta, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.1*wantVar+0.02 {
			t.Errorf("gamma(%v,%v) variance = %v, want ~%v", c.alpha, c.theta, variance, wantVar)
		}
	}
}

func TestBetaMoments(t *testing.T) {
	cases := []struct{ a, b float64 }{{2, 5}, {0.5, 0.5}, {5, 1}, {3, 3}}
	r := New(5)
	n := 150000
	for _, c := range cases {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Beta(c.a, c.b)
			if xs[i] < 0 || xs[i] > 1 {
				t.Fatalf("beta(%v,%v) variate %v outside [0,1]", c.a, c.b, xs[i])
			}
		}
		mean, variance := moments(xs)
		wantMean := c.a / (c.a + c.b)
		s := c.a + c.b
		wantVar := c.a * c.b / (s * s * (s + 1))
		if math.Abs(mean-wantMean) > 0.01 {
			t.Errorf("beta(%v,%v) mean = %v, want ~%v", c.a, c.b, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.05*wantVar+0.002 {
			t.Errorf("beta(%v,%v) variance = %v, want ~%v", c.a, c.b, variance, wantVar)
		}
	}
}

func TestBetaPrimeMean(t *testing.T) {
	r := New(6)
	n := 200000
	a, b := 3.0, 5.0
	var sum float64
	for i := 0; i < n; i++ {
		v := r.BetaPrime(a, b)
		if v < 0 {
			t.Fatal("beta-prime variate negative")
		}
		sum += v
	}
	want := a / (b - 1)
	if mean := sum / float64(n); math.Abs(mean-want) > 0.02 {
		t.Errorf("beta-prime(%v,%v) mean = %v, want ~%v", a, b, mean, want)
	}
}

func TestInvGammaMean(t *testing.T) {
	r := New(7)
	n := 200000
	alpha, beta := 4.0, 6.0
	var sum float64
	for i := 0; i < n; i++ {
		v := r.InvGamma(alpha, beta)
		if v <= 0 {
			t.Fatal("inverse-gamma variate non-positive")
		}
		sum += v
	}
	want := beta / (alpha - 1)
	if mean := sum / float64(n); math.Abs(mean-want) > 0.03 {
		t.Errorf("invgamma(%v,%v) mean = %v, want ~%v", alpha, beta, mean, want)
	}
}

func TestStudentTMoments(t *testing.T) {
	r := New(8)
	n := 300000
	nu := 8.0
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.StudentT(nu)
	}
	mean, variance := moments(xs)
	if math.Abs(mean) > 0.02 {
		t.Errorf("t(%v) mean = %v, want ~0", nu, mean)
	}
	want := nu / (nu - 2)
	if math.Abs(variance-want) > 0.1 {
		t.Errorf("t(%v) variance = %v, want ~%v", nu, variance, want)
	}
}

func TestLognormalMedian(t *testing.T) {
	r := New(9)
	n := 100001
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Lognormal(1, 0.5)
	}
	// Median of lognormal is exp(mu); check via counting.
	med := math.Exp(1)
	below := 0
	for _, x := range xs {
		if x < med {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("fraction below exp(mu) = %v, want ~0.5", frac)
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	r := New(10)
	weights := []float64{1, 2, 7}
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[r.Categorical(weights)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("category %d frequency = %v, want ~%v", i, got, want)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	r := New(11)
	for _, w := range [][]float64{{0, 0}, {-1, 2}, {}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Categorical(%v) did not panic", w)
				}
			}()
			r.Categorical(w)
		}()
	}
}

func TestSampleWithoutReplacementDistinct(t *testing.T) {
	r := New(12)
	var s Sampler
	for trial := 0; trial < 50; trial++ {
		idx := s.SampleWithoutReplacement(r, 20, 10)
		if len(idx) != 10 {
			t.Fatalf("%d indices, want 10", len(idx))
		}
		for k, i := range idx {
			if i < 0 || i >= 20 {
				t.Fatalf("index %d out of range", i)
			}
			if k > 0 && idx[k-1] >= i {
				t.Fatalf("indices %v not strictly increasing", idx)
			}
		}
	}
}

// TestSampleWithoutReplacementMatchesPerm checks the sampler against
// its reference, the sorted first k entries of Perm(n), over many seeds
// and shapes (k = 0 and k = n included), with one Sampler reused across
// shrinking and growing n. Both streams must also stand at the same
// point afterwards, so callers that draw more keep their sequence.
func TestSampleWithoutReplacementMatchesPerm(t *testing.T) {
	var s Sampler
	shapes := [][2]int{{1, 1}, {5, 0}, {7, 3}, {20, 10}, {59, 53}, {272, 91}, {272, 217}, {10, 10}}
	for seed := uint64(0); seed < 200; seed++ {
		for _, nk := range shapes {
			n, k := nk[0], nk[1]
			ref, got := New(seed), New(seed)
			want := ref.Perm(n)[:k]
			sort.Ints(want)
			idx := s.SampleWithoutReplacement(got, n, k)
			if !slices.Equal(idx, want) {
				t.Fatalf("seed %d, n %d, k %d: got %v, want %v", seed, n, k, idx, want)
			}
			if a, b := ref.Float64(), got.Float64(); a != b {
				t.Fatalf("seed %d, n %d, k %d: streams diverge after sampling (%v vs %v)", seed, n, k, a, b)
			}
		}
	}
}

func TestSampleWithReplacementRange(t *testing.T) {
	r := New(13)
	idx := r.SampleWithReplacement(5, 1000)
	if len(idx) != 1000 {
		t.Fatalf("length = %d", len(idx))
	}
	for _, i := range idx {
		if i < 0 || i >= 5 {
			t.Fatalf("index %d out of range", i)
		}
	}
}

func TestSamplerPanicsOnInvalidParams(t *testing.T) {
	r := New(14)
	cases := []func(){
		func() { r.Normal(0, -1) },
		func() { r.Exponential(0) },
		func() { r.Gamma(0, 1) },
		func() { r.Gamma(1, -2) },
		func() { r.Beta(-1, 1) },
		func() { r.InvGamma(1, 0) },
		func() { r.StudentT(0) },
		func() { new(Sampler).SampleWithoutReplacement(r, 3, 4) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

// TestSplitNMatchesSuccessiveSplits pins the pre-dispatch idiom: SplitN
// must yield exactly the streams that n successive Split calls would,
// so parallel decompositions stay bit-identical to sequential ones.
func TestSplitNMatchesSuccessiveSplits(t *testing.T) {
	a := New(42)
	b := New(42)
	split := make([]*RNG, 4)
	for i := range split {
		split[i] = a.Split()
	}
	splitN := b.SplitN(4)
	for i := range split {
		for j := 0; j < 32; j++ {
			x, y := split[i].Float64(), splitN[i].Float64()
			if x != y {
				t.Fatalf("stream %d draw %d: Split %v != SplitN %v", i, j, x, y)
			}
		}
	}
	// Further splits of the parents stay aligned too.
	if a.Split().Float64() != b.Split().Float64() {
		t.Fatal("parents diverged after SplitN")
	}
}
