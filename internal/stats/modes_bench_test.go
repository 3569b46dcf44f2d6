package stats_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/distrep"
	"repro/internal/measure"
	"repro/internal/perfsim"
	"repro/internal/stats"
)

var (
	predictedOnce    sync.Once
	predictedSamples [][]float64
	predictedErr     error
)

// paperScalePredictions decodes a raw-profile kNN prediction for every
// benchmark of a paper-scale campaign (both systems, all of Table I,
// 1,000 runs each) through each of the three decoders: 360 samples of
// 1,000 values, the inputs a warm profile request's summary counts the
// modes of.
func paperScalePredictions(b *testing.B) [][]float64 {
	b.Helper()
	predictedOnce.Do(func() {
		db, err := measure.Collect(
			[]*perfsim.System{perfsim.NewIntelSystem(), perfsim.NewAMDSystem()},
			perfsim.TableI(),
			measure.Config{Runs: 1000, ProbeRuns: 120, Seed: 1},
		)
		if err != nil {
			predictedErr = err
			return
		}
		p := core.NewPredictor(db)
		for _, sd := range db.Systems {
			for _, rep := range []distrep.Kind{distrep.PearsonRnd, distrep.Histogram, distrep.MaxEnt} {
				cfg := core.UC1Config{Rep: rep, Model: core.KNN, NumSamples: 10, Seed: 1}
				for i, bench := range sd.Benchmarks {
					off := (i % 11) * 10
					pred, err := p.PredictUC1Profile(context.Background(), sd.SystemName, bench.ProbeRuns[off:off+10], 1000, cfg)
					if err != nil {
						predictedErr = err
						return
					}
					predictedSamples = append(predictedSamples, pred.Predicted)
				}
			}
		}
	})
	if predictedErr != nil {
		b.Fatal(predictedErr)
	}
	return predictedSamples
}

// BenchmarkSampleModesPredicted counts the modes of paper-scale
// predicted samples from all three decoders the way a profile
// response does, cycling over the samples.
func BenchmarkSampleModesPredicted(b *testing.B) {
	samples := paperScalePredictions(b)
	sorted := make([][]float64, len(samples))
	for i, xs := range samples {
		sorted[i] = stats.SortedCopy(xs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(samples)
		_ = stats.SampleModes(samples[j], sorted[j])
	}
}

// BenchmarkSortedCopyPredicted sorts the same samples.
func BenchmarkSortedCopyPredicted(b *testing.B) {
	samples := paperScalePredictions(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = stats.SortedCopy(samples[i%len(samples)])
	}
}
