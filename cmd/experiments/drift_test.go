package main

import (
	"strconv"
	"testing"

	"repro/internal/drift"
	"repro/internal/measure"
	"repro/internal/perfsim"
)

// TestDriftExperimentSmoke runs a miniature ext7 end to end through
// both servers' handlers, at the full run's detector and batch shape
// but with 4 drifted and 2 probe batches: every cell of the drifted
// system must trip at batch 4, the treatment's refits must pull the
// detector's residual KS below the no-refit control, and the control
// must keep reading (near-)maximal drift against its stale baseline.
func TestDriftExperimentSmoke(t *testing.T) {
	const batches, probes = 4, 2
	// One campaign run per streamed run, so the stream never repeats.
	db, err := measure.Collect(
		[]*perfsim.System{perfsim.NewIntelSystem(), perfsim.NewAMDSystem()},
		perfsim.TableI()[:16],
		measure.Config{Runs: (batches + probes) * driftBatchSize, ProbeRuns: 12, Seed: 20250805},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := driftExperiment(db, drift.Config{Seed: 7}, batches, probes)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "ext7" || len(res.Rows) != 1+16 || len(res.Headlines) != 2 {
		t.Fatalf("bad report shape: %d rows, %d headlines", len(res.Rows), len(res.Headlines))
	}
	num := func(s string) float64 {
		t.Helper()
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("non-numeric cell %q", s)
		}
		return v
	}
	var meanFinal, meanControl float64
	for _, row := range res.Rows[1:] {
		cell := row[0]
		// The window fills to the detector's minimum of 32 at batch 2,
		// and disjoint support breaches on every evaluation: the third,
		// at batch 4, trips.
		if row[1] != "4" {
			t.Errorf("%s: tripped at batch %s, want 4", cell, row[1])
		}
		if num(row[3]) == 0 {
			t.Errorf("%s: no successful refit recorded", cell)
		}
		if row[4] != "0" {
			t.Errorf("%s: %s refit failures in a healthy run", cell, row[4])
		}
		meanFinal += num(row[5]) / 16
		meanControl += num(row[6]) / 16
	}
	// The ×2 stream has (nearly) disjoint support with the stale
	// baseline, so the control reads near-maximal KS forever; the
	// treatment's merges must pull the residual well below it.
	if meanControl < 0.8 {
		t.Errorf("no-refit control KS %.3f, want near-maximal drift", meanControl)
	}
	if meanFinal > meanControl-0.1 {
		t.Errorf("refits did not recover: residual KS %.3f vs control %.3f", meanFinal, meanControl)
	}
	if res.Headlines[0].Measured != 4 {
		t.Errorf("mean batches to trip = %v, want 4", res.Headlines[0].Measured)
	}
}
