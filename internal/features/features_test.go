package features

import (
	"math"
	"strings"
	"testing"

	"repro/internal/perfsim"
	"repro/internal/randx"
)

func sampleRuns(t *testing.T, n int) ([]perfsim.Run, []string) {
	t.Helper()
	sys := perfsim.NewIntelSystem()
	m := perfsim.NewMachine(sys)
	w, ok := perfsim.FindWorkload("npb/cg")
	if !ok {
		t.Fatal("npb/cg missing")
	}
	return m.Bench(w).RunN(randx.New(1), n), sys.MetricNames
}

func TestFromRunsLayout(t *testing.T) {
	runs, names := sampleRuns(t, 10)
	p, err := FromRuns(runs, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Values) != 68*4 {
		t.Fatalf("feature count = %d, want %d", len(p.Values), 68*4)
	}
	if len(p.Names) != len(p.Values) {
		t.Fatalf("names %d != values %d", len(p.Names), len(p.Values))
	}
	if !strings.HasSuffix(p.Names[0], ":mean") || !strings.HasSuffix(p.Names[3], ":kurt") {
		t.Errorf("name layout wrong: %v", p.Names[:4])
	}
	for i, v := range p.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("feature %s = %v", p.Names[i], v)
		}
	}
}

func TestFromRunsSingleRunDegenerateMoments(t *testing.T) {
	runs, names := sampleRuns(t, 1)
	p, err := FromRuns(runs, names)
	if err != nil {
		t.Fatal(err)
	}
	// For one run: std = 0, skew = 0, kurt = 3 for every metric.
	for m := 0; m < 68; m++ {
		if p.Values[m*4+1] != 0 || p.Values[m*4+2] != 0 || p.Values[m*4+3] != 3 {
			t.Fatalf("metric %d: degenerate moments = %v", m, p.Values[m*4:m*4+4])
		}
	}
}

func TestFromRunsPerSecondNormalization(t *testing.T) {
	// Two synthetic runs with different durations but identical rates:
	// the std features must be ~0 because the per-second values agree.
	runs := []perfsim.Run{
		{Seconds: 2, Metrics: []float64{200}},
		{Seconds: 5, Metrics: []float64{500}},
	}
	p, err := FromRuns(runs, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Values[0] != 100 {
		t.Errorf("mean per-second = %v, want 100", p.Values[0])
	}
	if p.Values[1] != 0 {
		t.Errorf("std = %v, want 0 (identical rates)", p.Values[1])
	}
}

func TestFromRunsErrors(t *testing.T) {
	if _, err := FromRuns(nil, []string{"x"}); err == nil {
		t.Error("no runs should fail")
	}
	if _, err := FromRuns([]perfsim.Run{{Seconds: 1, Metrics: []float64{1, 2}}}, []string{"x"}); err == nil {
		t.Error("metric/schema mismatch should fail")
	}
	if _, err := FromRuns([]perfsim.Run{{Seconds: 0, Metrics: []float64{1}}}, []string{"x"}); err == nil {
		t.Error("zero duration should fail")
	}
}

func TestMeanOnly(t *testing.T) {
	runs, names := sampleRuns(t, 8)
	full, _ := FromRuns(runs, names)
	mean, err := MeanOnly(runs, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(mean.Values) != 68 {
		t.Fatalf("mean-only feature count = %d", len(mean.Values))
	}
	for m := 0; m < 68; m++ {
		if mean.Values[m] != full.Values[m*4] {
			t.Fatalf("metric %d mean mismatch", m)
		}
	}
}

func TestLabeledNames(t *testing.T) {
	got := LabeledNames("src-dist", 3)
	if len(got) != 3 || got[0] != "src-dist[0]" || got[2] != "src-dist[2]" {
		t.Errorf("LabeledNames = %v", got)
	}
	if len(LabeledNames("x", 0)) != 0 {
		t.Error("LabeledNames of no features is not empty")
	}
}

// TestAppendValuesMatchesProfile checks that the caller-owned values
// buffer receives exactly the profile's values after what it already
// holds, in both layouts, and that Names matches the profile's names.
func TestAppendValuesMatchesProfile(t *testing.T) {
	runs, names := sampleRuns(t, 10)
	for _, meanOnly := range []bool{false, true} {
		p, err := profile(runs, names, meanOnly)
		if err != nil {
			t.Fatal(err)
		}
		head := []float64{7, 8}
		got, err := AppendValues(head, runs, len(names), meanOnly)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2+len(p.Values) || got[0] != 7 || got[1] != 8 {
			t.Fatalf("meanOnly=%v: AppendValues kept %v of the buffer, %d values", meanOnly, got[:2], len(got)-2)
		}
		for i, v := range p.Values {
			if math.Float64bits(got[2+i]) != math.Float64bits(v) {
				t.Fatalf("meanOnly=%v: value %d = %v, profile %v", meanOnly, i, got[2+i], v)
			}
		}
		if n := Names(names, meanOnly); len(n) != len(p.Values) || n[0] != names[0]+"/sec:mean" {
			t.Fatalf("meanOnly=%v: %d names for %d values, first %q", meanOnly, len(n), len(p.Values), n[0])
		}
	}
}

func TestProfilesStabilizeWithMoreRuns(t *testing.T) {
	// The std of the profile's mean features across repeated samplings
	// should shrink as the number of runs grows — the mechanism behind
	// Figure 6's accuracy improvement.
	sys := perfsim.NewIntelSystem()
	m := perfsim.NewMachine(sys)
	w, _ := perfsim.FindWorkload("parsec/canneal")
	bench := m.Bench(w)
	spread := func(nRuns int) float64 {
		rng := randx.New(42)
		var vals []float64
		for trial := 0; trial < 20; trial++ {
			p, err := FromRuns(bench.RunN(rng, nRuns), sys.MetricNames)
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, p.Values[4*6]) // instructions/sec:mean
		}
		var mean, variance float64
		for _, v := range vals {
			mean += v
		}
		mean /= float64(len(vals))
		for _, v := range vals {
			variance += (v - mean) * (v - mean)
		}
		return math.Sqrt(variance / float64(len(vals)))
	}
	if s1, s25 := spread(1), spread(25); s25 >= s1 {
		t.Errorf("profile spread with 25 runs (%v) not below 1 run (%v)", s25, s1)
	}
}
