package distrep

import (
	"math"
	"testing"

	"repro/internal/randx"
	"repro/internal/stats"
)

// bimodalSample builds a bimodal relative-time-like sample with mean ~1.
func bimodalSample(rng *randx.RNG, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if rng.Float64() < 0.65 {
			out[i] = rng.Normal(0.97, 0.01)
		} else {
			out[i] = rng.Normal(1.06, 0.015)
		}
	}
	return stats.Normalize(out)
}

func TestParseKind(t *testing.T) {
	cases := map[string]Kind{
		"": PearsonRnd, "pearsonrnd": PearsonRnd, "pearson": PearsonRnd, "PEARSON": PearsonRnd,
		"histogram": Histogram, "hist": Histogram,
		"pymaxent": MaxEnt, "maxent": MaxEnt, "MaxEnt": MaxEnt,
		"quantile": Quantile,
	}
	for in, want := range cases {
		got, err := ParseKind(in)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	_, err := ParseKind("gaussian")
	if want := `unknown representation "gaussian" (want pearsonrnd, histogram, pymaxent, or quantile)`; err == nil || err.Error() != want {
		t.Errorf("ParseKind(gaussian) error = %v, want %q", err, want)
	}
}

func TestNewAndNames(t *testing.T) {
	for _, k := range Kinds() {
		rep, err := New(k, DefaultBins)
		if err != nil {
			t.Fatalf("New(%v): %v", k, err)
		}
		if rep.Name() == "" || rep.Dim() < 1 {
			t.Errorf("%v: name=%q dim=%d", k, rep.Name(), rep.Dim())
		}
	}
	if _, err := New(Histogram, 1); err == nil {
		t.Error("1-bin histogram should fail")
	}
	if _, err := New(Kind(99), 10); err == nil {
		t.Error("unknown kind should fail")
	}
	if Histogram.String() != "Histogram" || MaxEnt.String() != "PyMaxEnt" || PearsonRnd.String() != "PearsonRnd" {
		t.Error("kind names must match the paper")
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestHistogramEncodeNormalized(t *testing.T) {
	rep := &HistogramRep{Lo: DefaultLo, Hi: DefaultHi, Bins: 20}
	rng := randx.New(1)
	vec := rep.Encode(bimodalSample(rng, 5000))
	if len(vec) != 20 {
		t.Fatalf("dim = %d", len(vec))
	}
	var sum float64
	for _, v := range vec {
		if v < 0 {
			t.Fatalf("negative bin weight %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("bin weights sum to %v, want 1", sum)
	}
}

func TestRoundTripAccuracy(t *testing.T) {
	// Encoding then decoding a well-behaved sample must land close in KS
	// terms; this bounds the intrinsic loss of each representation.
	rng := randx.New(2)
	sample := bimodalSample(rng, 5000)
	maxKS := map[string]float64{
		"Histogram(50)": 0.08, // bin discretization
		"PyMaxEnt":      0.40, // 4 moments cannot hold a bimodal shape
		"PearsonRnd":    0.40,
	}
	for _, k := range Kinds() {
		rep, _ := New(k, DefaultBins)
		vec := rep.Encode(sample)
		if len(vec) != rep.Dim() {
			t.Fatalf("%s: encode dim %d != Dim() %d", rep.Name(), len(vec), rep.Dim())
		}
		decoded := rep.Decode(vec, 5000, rng.Split())
		if len(decoded) != 5000 {
			t.Fatalf("%s: decoded %d samples", rep.Name(), len(decoded))
		}
		ks := stats.KSStatistic(sample, decoded)
		if ks > maxKS[rep.Name()] {
			t.Errorf("%s: round-trip KS = %v, want <= %v", rep.Name(), ks, maxKS[rep.Name()])
		}
	}
}

func TestHistogramRoundTripBeatsMomentsOnBimodal(t *testing.T) {
	// On a sharply bimodal distribution, the histogram representation's
	// round trip must beat the 4-moment representations — the structural
	// trade-off behind the paper's Figure 4 violins.
	rng := randx.New(3)
	sample := bimodalSample(rng, 6000)
	hist, _ := New(Histogram, DefaultBins)
	pear, _ := New(PearsonRnd, 0)
	ksH := stats.KSStatistic(sample, hist.Decode(hist.Encode(sample), 6000, rng.Split()))
	ksP := stats.KSStatistic(sample, pear.Decode(pear.Encode(sample), 6000, rng.Split()))
	if ksH >= ksP {
		t.Errorf("histogram round-trip KS %v not better than Pearson %v on bimodal data", ksH, ksP)
	}
}

func TestMomentRepsRoundTripUnimodal(t *testing.T) {
	// On unimodal data the moment representations should do well.
	rng := randx.New(4)
	sample := make([]float64, 5000)
	for i := range sample {
		sample[i] = rng.Normal(1, 0.02)
	}
	for _, k := range []Kind{MaxEnt, PearsonRnd} {
		rep, _ := New(k, 0)
		decoded := rep.Decode(rep.Encode(sample), 5000, rng.Split())
		if ks := stats.KSStatistic(sample, decoded); ks > 0.05 {
			t.Errorf("%s: unimodal round-trip KS = %v, want <= 0.05", rep.Name(), ks)
		}
	}
}

func TestHistogramDecodeHandlesNegativePredictions(t *testing.T) {
	rep := &HistogramRep{Lo: 0.7, Hi: 1.7, Bins: 5}
	vec := []float64{-0.3, 0.5, 0.5, -0.1, 0}
	out := rep.Decode(vec, 2000, randx.New(5))
	for _, v := range out {
		if v < 0.7+0.2-1e-9 || v > 0.7+0.6+1e-9 {
			t.Fatalf("sample %v outside positive-weight bins", v)
		}
	}
}

func TestHistogramDecodeDegenerateFallsBack(t *testing.T) {
	rep := &HistogramRep{Lo: 0.7, Hi: 1.7, Bins: 4}
	out := rep.Decode([]float64{-1, 0, -2, 0}, 10, randx.New(6))
	for _, v := range out {
		if v != 1 {
			t.Fatalf("fallback sample = %v, want 1", v)
		}
	}
}

func TestHistogramDecodeWrongDimPanics(t *testing.T) {
	rep := &HistogramRep{Lo: 0.7, Hi: 1.7, Bins: 4}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rep.Decode([]float64{1, 2}, 5, randx.New(7))
}

func TestMomentDecodesHandleInfeasiblePredictions(t *testing.T) {
	// A regression model can output kurt < skew²+1; decoding must not
	// fail and must produce samples with roughly the requested mean/std.
	bad := []float64{1.0, 0.05, 2.0, 2.0} // infeasible pair
	for _, k := range []Kind{MaxEnt, PearsonRnd} {
		rep, _ := New(k, 0)
		out := rep.Decode(bad, 20000, randx.New(8))
		m := stats.ComputeMoments4(out)
		if math.Abs(m.Mean-1) > 0.02 {
			t.Errorf("%s: mean = %v, want ~1", rep.Name(), m.Mean)
		}
		if m.Std <= 0 || m.Std > 0.12 {
			t.Errorf("%s: std = %v, want near 0.05", rep.Name(), m.Std)
		}
	}
}

func TestMomentDecodesHandleNegativeStd(t *testing.T) {
	bad := []float64{1.0, -0.5, 0, 3}
	for _, k := range []Kind{MaxEnt, PearsonRnd} {
		rep, _ := New(k, 0)
		out := rep.Decode(bad, 100, randx.New(9))
		for _, v := range out {
			if math.IsNaN(v) {
				t.Fatalf("%s produced NaN", rep.Name())
			}
		}
	}
}

func TestDecodeDeterministic(t *testing.T) {
	rng := randx.New(10)
	sample := bimodalSample(rng, 2000)
	for _, k := range Kinds() {
		rep, _ := New(k, DefaultBins)
		vec := rep.Encode(sample)
		a := rep.Decode(vec, 50, randx.New(77))
		b := rep.Decode(vec, 50, randx.New(77))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: decode not deterministic", rep.Name())
			}
		}
	}
}

func TestQuantileRepRoundTrip(t *testing.T) {
	rng := randx.New(11)
	sample := bimodalSample(rng, 6000)
	rep, err := NewQuantile(40)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dim() != 40 || rep.Name() == "" {
		t.Errorf("dim=%d name=%q", rep.Dim(), rep.Name())
	}
	vec := rep.Encode(sample)
	// Encoded quantiles must be sorted.
	for i := 1; i < len(vec); i++ {
		if vec[i] < vec[i-1] {
			t.Fatalf("quantiles not monotone at %d", i)
		}
	}
	decoded := rep.Decode(vec, 6000, rng.Split())
	if ks := stats.KSStatistic(sample, decoded); ks > 0.06 {
		t.Errorf("quantile round-trip KS = %v, want <= 0.06", ks)
	}
}

func TestQuantileRepRepairsNonMonotone(t *testing.T) {
	rep, _ := NewQuantile(4)
	out := rep.Decode([]float64{1.2, 0.9, 1.0, 1.1}, 500, randx.New(12))
	for _, v := range out {
		if v < 0.9 || v > 1.2 {
			t.Fatalf("sample %v outside repaired quantile range", v)
		}
	}
}

func TestQuantileRepValidation(t *testing.T) {
	if _, err := NewQuantile(1); err == nil {
		t.Error("K=1 should fail")
	}
	rep, _ := NewQuantile(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong decode dim")
		}
	}()
	rep.Decode([]float64{1}, 5, randx.New(13))
}

func TestQuantileRepBeatsMomentsOnBimodal(t *testing.T) {
	// Like the histogram, quantiles retain multimodal structure.
	rng := randx.New(14)
	sample := bimodalSample(rng, 6000)
	qr, _ := NewQuantile(DefaultBins)
	pr, _ := New(PearsonRnd, 0)
	ksQ := stats.KSStatistic(sample, qr.Decode(qr.Encode(sample), 6000, rng.Split()))
	ksP := stats.KSStatistic(sample, pr.Decode(pr.Encode(sample), 6000, rng.Split()))
	if ksQ >= ksP {
		t.Errorf("quantile round-trip KS %v not better than Pearson %v on bimodal data", ksQ, ksP)
	}
}
