package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.AddAll([]float64{0, 1.9, 2, 5.5, 9.99})
	want := []float64{2, 1, 1, 0, 1}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bin %d = %v, want %v (counts %v)", i, h.Counts[i], w, h.Counts)
		}
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-5)
	h.Add(99)
	h.Add(1) // hi boundary clamps into last bin
	if h.Counts[0] != 1 || h.Counts[3] != 2 {
		t.Errorf("clamping wrong: %v", h.Counts)
	}
	if h.Total() != 3 {
		t.Errorf("Total = %v, want 3", h.Total())
	}
}

func TestHistogramNormalized(t *testing.T) {
	h := HistogramFromSample([]float64{1, 1, 3}, 0, 4, 4)
	n := h.Normalized()
	var sum float64
	for _, c := range n.Counts {
		sum += c
	}
	if !almostEqual(sum, 1, 1e-14) {
		t.Errorf("normalized total = %v, want 1", sum)
	}
	if !almostEqual(n.Counts[1], 2.0/3, 1e-14) {
		t.Errorf("normalized bin 1 = %v, want 2/3", n.Counts[1])
	}
	// Normalizing an empty histogram yields zeros, not NaN.
	empty := NewHistogram(0, 1, 3).Normalized()
	for _, c := range empty.Counts {
		if c != 0 {
			t.Errorf("empty normalized bin = %v, want 0", c)
		}
	}
}

func TestHistogramDensityIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewPCG(81, 82))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	h := HistogramFromSample(xs, -5, 5, 50)
	var integral float64
	for i := range h.Counts {
		integral += h.Density(i) * h.BinWidth()
	}
	if !almostEqual(integral, 1, 1e-12) {
		t.Errorf("density integral = %v, want 1", integral)
	}
}

func TestHistogramBinCenters(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	centers := h.BinCenters()
	want := []float64{0.125, 0.375, 0.625, 0.875}
	for i := range want {
		if !almostEqual(centers[i], want[i], 1e-14) {
			t.Errorf("center %d = %v, want %v", i, centers[i], want[i])
		}
	}
}

func TestHistogramSampleFromWeightsRecoversShape(t *testing.T) {
	// Build a bimodal histogram, sample from it, and verify the ECDFs agree.
	rng := rand.New(rand.NewPCG(91, 92))
	orig := make([]float64, 20000)
	for i := range orig {
		if rng.Float64() < 0.7 {
			orig[i] = rng.NormFloat64()*0.1 + 1
		} else {
			orig[i] = rng.NormFloat64()*0.1 + 2
		}
	}
	h := HistogramFromSample(orig, 0.5, 2.5, 40)
	resampled := h.SampleFromWeights(20000, rng.Float64)
	if d := KSStatistic(orig, resampled); d > 0.03 {
		t.Errorf("KS between original and histogram-resampled = %v, expected < 0.03", d)
	}
}

func TestHistogramSampleFromWeightsEmptyPanics(t *testing.T) {
	h := NewHistogram(0, 1, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty histogram")
		}
	}()
	h.SampleFromWeights(5, func() float64 { return 0.5 })
}

func TestSilvermanBandwidthPositive(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 102))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 2
	}
	bw := SilvermanBandwidth(xs)
	if bw <= 0 {
		t.Fatalf("bandwidth = %v, want > 0", bw)
	}
	// Rough sanity: for n=500 normal(0,2), 0.9*2*500^-0.2 ≈ 0.52.
	if bw < 0.2 || bw > 1.0 {
		t.Errorf("bandwidth = %v, outside plausible range", bw)
	}
	// Constant sample falls back to a positive sliver.
	if bw := SilvermanBandwidth([]float64{5, 5, 5}); bw <= 0 {
		t.Errorf("degenerate bandwidth = %v, want > 0", bw)
	}
	if bw := SilvermanBandwidth([]float64{0, 0, 0}); bw <= 0 {
		t.Errorf("zero-sample bandwidth = %v, want > 0", bw)
	}
}

func TestKDEIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewPCG(111, 112))
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	k := NewKDE(xs)
	lo, hi := k.Support()
	n := 2000
	var integral float64
	step := (hi - lo) / float64(n)
	for i := 0; i <= n; i++ {
		x := lo + float64(i)*step
		w := 1.0
		if i == 0 || i == n {
			w = 0.5
		}
		integral += w * k.At(x) * step
	}
	if math.Abs(integral-1) > 0.01 {
		t.Errorf("KDE integral = %v, want ~1", integral)
	}
}

func TestKDEPeakNearSampleMode(t *testing.T) {
	xs := []float64{1, 1.01, 0.99, 1.02, 0.98, 5}
	k := NewKDE(xs)
	if k.At(1) <= k.At(3) {
		t.Error("KDE should peak near the cluster at 1, not between clusters")
	}
}

func TestKDECountModes(t *testing.T) {
	rng := rand.New(rand.NewPCG(121, 122))
	// Unimodal.
	uni := make([]float64, 3000)
	for i := range uni {
		uni[i] = rng.NormFloat64() * 0.05
	}
	if got := NewKDE(uni).CountModes(512, 0.1); got != 1 {
		t.Errorf("unimodal CountModes = %d, want 1", got)
	}
	// Clearly bimodal.
	bi := make([]float64, 4000)
	for i := range bi {
		if i%2 == 0 {
			bi[i] = rng.NormFloat64()*0.03 + 1
		} else {
			bi[i] = rng.NormFloat64()*0.03 + 2
		}
	}
	if got := NewKDE(bi).CountModes(512, 0.1); got != 2 {
		t.Errorf("bimodal CountModes = %d, want 2", got)
	}
}

func TestKDEExplicitBandwidthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive bandwidth")
		}
	}()
	NewKDEWithBandwidth([]float64{1, 2}, 0)
}

func TestQuantileKnown(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // sorted: 1 2 3 4
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {1.0 / 3, 2},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantilesAndIQR(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	qs := Quantiles(xs, []float64{0.25, 0.5, 0.75})
	if !almostEqual(qs[0], 3, 1e-12) || !almostEqual(qs[1], 5, 1e-12) || !almostEqual(qs[2], 7, 1e-12) {
		t.Errorf("Quantiles = %v, want [3 5 7]", qs)
	}
	if got := qs[2] - qs[0]; !almostEqual(got, 4, 1e-12) {
		t.Errorf("interquartile range = %v, want 4", got)
	}
	if got := Median(xs); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Median = %v, want 5", got)
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 0})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = (%v, %v), want (-1, 7)", min, max)
	}
}

func TestSummarize(t *testing.T) {
	v := Summarize([]float64{1, 2, 3, 4, 5})
	if v.N != 5 || v.Min != 1 || v.Max != 5 || !almostEqual(v.Median, 3, 1e-12) || !almostEqual(v.Mean, 3, 1e-12) {
		t.Errorf("Summarize = %+v", v)
	}
	if v.String() == "" {
		t.Error("String should render")
	}
}
