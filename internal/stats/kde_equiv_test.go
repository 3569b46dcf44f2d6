package stats_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/distrep"
	"repro/internal/measure"
	"repro/internal/perfsim"
	"repro/internal/randx"
	"repro/internal/stats"
)

// directModes is the oracle for CountModes: the density evaluated at
// every grid point by the direct sum At, then the same local-maximum
// rule. It also returns the direct grid for the deviation check.
func directModes(k *stats.KDE, gridN int, rel float64) (int, []float64) {
	lo, hi := k.Support()
	step := (hi - lo) / float64(gridN-1)
	ys := make([]float64, gridN)
	maxY := 0.0
	for i := range ys {
		ys[i] = k.At(lo + float64(i)*step)
		maxY = math.Max(maxY, ys[i])
	}
	modes := 0
	for i := 1; i < gridN-1; i++ {
		if ys[i] > ys[i-1] && ys[i] >= ys[i+1] && ys[i] >= rel*maxY {
			modes++
		}
	}
	return modes, ys
}

// checkModesMatchDirect asserts that CountModes agrees with the direct
// sum on xs at both grids the repository uses, and that the scattered
// density deviates from At by at most 1e-12 of the peak.
func checkModesMatchDirect(t *testing.T, name string, xs []float64) {
	t.Helper()
	k := stats.NewKDE(xs)
	for _, g := range []struct {
		n   int
		rel float64
	}{{512, 0.1}, {1024, 0.08}} {
		want, direct := directModes(k, g.n, g.rel)
		if got := k.CountModes(g.n, g.rel); got != want {
			t.Errorf("%s (%d, %v): CountModes = %d, direct sum = %d", name, g.n, g.rel, got, want)
		}
		lo, hi := k.Support()
		scattered := k.GridDensity(lo, (hi-lo)/float64(g.n-1), g.n)
		peak, dev := 0.0, 0.0
		for i := range direct {
			peak = math.Max(peak, direct[i])
			dev = math.Max(dev, math.Abs(scattered[i]-direct[i]))
		}
		if dev > 1e-12*peak {
			t.Errorf("%s (%d, %v): density deviation %.3g of the peak, want <= 1e-12", name, g.n, g.rel, dev/peak)
		}
	}
}

// TestCountModesMatchesDirectSumGolden covers the golden campaign's
// measured samples and its kNN predictions through all three decoders.
func TestCountModesMatchesDirectSumGolden(t *testing.T) {
	db, err := measure.Collect(
		[]*perfsim.System{perfsim.NewIntelSystem(), perfsim.NewAMDSystem()},
		perfsim.TableI()[:8],
		measure.Config{Runs: 60, ProbeRuns: 20, Seed: 42},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, sd := range db.Systems {
		for _, b := range sd.Benchmarks {
			id := b.Workload.ID()
			for _, rep := range []distrep.Kind{distrep.PearsonRnd, distrep.Histogram, distrep.MaxEnt} {
				pred, actual, err := core.PredictUC1(&sd, id, core.UC1Config{
					Rep: rep, Model: core.KNN, NumSamples: 10, Seed: 7,
				})
				if err != nil {
					t.Fatalf("%s %s %s: %v", sd.SystemName, id, rep, err)
				}
				name := fmt.Sprintf("%s %s", sd.SystemName, id)
				if rep == distrep.PearsonRnd {
					checkModesMatchDirect(t, name+" measured", actual)
				}
				checkModesMatchDirect(t, name+" predicted "+rep.String(), pred)
			}
		}
	}
}

// TestCountModesMatchesDirectSumPerfsim covers the simulator's samples
// for every Table I benchmark, multi-modal ones included.
func TestCountModesMatchesDirectSumPerfsim(t *testing.T) {
	s := perfsim.NewIntelSystem()
	rng := randx.New(5)
	for _, w := range perfsim.TableI() {
		d := perfsim.NewRuntimeDist(w, s)
		checkModesMatchDirect(t, w.ID(), stats.Normalize(d.SampleN(rng.Split(), 2000)))
	}
}

// TestCountModesMatchesDirectSumEdgeCases covers the inputs where a
// windowed evaluation is most likely to diverge from the direct sum.
func TestCountModesMatchesDirectSumEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	normal := func(n int, mu, sigma float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = mu + sigma*rng.NormFloat64()
		}
		return xs
	}
	checkModesMatchDirect(t, "n=2", []float64{1, 1.5})

	dup := make([]float64, 1000)
	for i := range dup {
		dup[i] = float64(i % 3)
	}
	dup[0] = 0.5
	checkModesMatchDirect(t, "duplicated values", dup)

	// One outlier stretches the grid so its step exceeds the bandwidth.
	outlier := append(normal(999, 1, 0.01), 1000)
	k := stats.NewKDE(outlier)
	lo, hi := k.Support()
	if step := (hi - lo) / 511; step <= k.Bandwidth {
		t.Fatalf("outlier case: step %v not larger than bandwidth %v", step, k.Bandwidth)
	}
	checkModesMatchDirect(t, "far outlier", outlier)

	var clusters []float64
	for _, mu := range []float64{0, 50, 1e4} {
		clusters = append(clusters, normal(300, mu, 1)...)
	}
	checkModesMatchDirect(t, "separated clusters", clusters)
}
