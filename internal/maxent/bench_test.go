package maxent

import (
	"testing"

	"repro/internal/randx"
	"repro/internal/stats"
)

func BenchmarkReconstructRawWideSupport(b *testing.B) {
	// The PyMaxEnt-faithful raw solve on the shared [0.7, 1.7] support;
	// a moderately wide target that the undamped solver converges on.
	mu := RawMomentsFromMoments4(stats.Moments4{Mean: 1.1, Std: 0.15, Skew: 0.2, Kurt: 2.9})
	if _, err := ReconstructRaw(mu, 0.7, 1.7); err != nil {
		b.Skipf("raw solve does not converge for this target: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReconstructRaw(mu, 0.7, 1.7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReconstructRawNeedleFailure times the failure path on a
// narrow "needle" distribution — the fragile regime that degrades the
// PyMaxEnt representation in the paper's comparison (the decode pays
// this cost before falling back to a Gaussian).
func BenchmarkReconstructRawNeedleFailure(b *testing.B) {
	mu := RawMomentsFromMoments4(stats.Moments4{Mean: 1, Std: 0.01, Skew: 0.3, Kurt: 3.2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReconstructRaw(mu, 0.7, 1.7); err == nil {
			b.Fatal("expected the needle target to fail")
		}
	}
}

func BenchmarkDensitySample1000(b *testing.B) {
	d, err := ReconstructRaw(RawMomentsFromMoments4(stats.Moments4{Mean: 1.1, Std: 0.15, Skew: 0.2, Kurt: 2.9}), 0.7, 1.7)
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Sample(1000, rng.Float64)
	}
}
