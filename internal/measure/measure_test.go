package measure

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/perfsim"
)

func smallCampaign(t *testing.T, seed uint64) *Database {
	t.Helper()
	db, err := Collect(
		[]*perfsim.System{perfsim.NewIntelSystem(), perfsim.NewAMDSystem()},
		perfsim.TableI()[:6],
		Config{Runs: 50, ProbeRuns: 10, Seed: seed},
	)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCollectShapes(t *testing.T) {
	db := smallCampaign(t, 1)
	if len(db.Systems) != 2 {
		t.Fatalf("systems = %d", len(db.Systems))
	}
	intel, ok := db.System("intel")
	if !ok {
		t.Fatal("intel system missing")
	}
	if len(intel.Benchmarks) != 6 {
		t.Fatalf("benchmarks = %d", len(intel.Benchmarks))
	}
	for _, b := range intel.Benchmarks {
		if len(b.Runs) != 50 || len(b.ProbeRuns) != 10 {
			t.Errorf("%s: runs=%d probes=%d", b.Workload.ID(), len(b.Runs), len(b.ProbeRuns))
		}
		for _, r := range b.Runs {
			if len(r.Metrics) != 68 {
				t.Fatalf("%s: metric vector %d", b.Workload.ID(), len(r.Metrics))
			}
		}
	}
	amd, _ := db.System("amd")
	if len(amd.Benchmarks[0].Runs[0].Metrics) != 75 {
		t.Errorf("amd metrics = %d, want 75", len(amd.Benchmarks[0].Runs[0].Metrics))
	}
	if _, ok := db.System("sparc"); ok {
		t.Error("found nonexistent system")
	}
}

func TestCollectDeterministicAcrossWorkerCounts(t *testing.T) {
	db1, err := Collect([]*perfsim.System{perfsim.NewIntelSystem()}, perfsim.TableI()[:4],
		Config{Runs: 20, ProbeRuns: 5, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	db8, err := Collect([]*perfsim.System{perfsim.NewIntelSystem()}, perfsim.TableI()[:4],
		Config{Runs: 20, ProbeRuns: 5, Seed: 7, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for bi := range db1.Systems[0].Benchmarks {
		a := db1.Systems[0].Benchmarks[bi]
		b := db8.Systems[0].Benchmarks[bi]
		for ri := range a.Runs {
			if a.Runs[ri].Seconds != b.Runs[ri].Seconds {
				t.Fatalf("worker count changed results for %s run %d", a.Workload.ID(), ri)
			}
		}
	}
}

func TestRelTimesMeanOne(t *testing.T) {
	db := smallCampaign(t, 2)
	intel, _ := db.System("intel")
	for _, b := range intel.Benchmarks {
		rel := b.RelTimes()
		var mean float64
		for _, v := range rel {
			mean += v
		}
		mean /= float64(len(rel))
		if math.Abs(mean-1) > 1e-12 {
			t.Errorf("%s: relative-time mean = %v, want 1", b.Workload.ID(), mean)
		}
	}
}

func TestFind(t *testing.T) {
	db := smallCampaign(t, 3)
	intel, _ := db.System("intel")
	id := perfsim.TableI()[2].ID()
	b, ok := intel.Find(id)
	if !ok || b.Workload.ID() != id {
		t.Fatalf("Find(%s) failed", id)
	}
	if _, ok := intel.Find("nope/none"); ok {
		t.Error("found nonexistent benchmark")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := smallCampaign(t, 4)
	path := filepath.Join(t.TempDir(), "campaign.gob.gz")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != db.Seed || len(got.Systems) != len(db.Systems) {
		t.Fatal("metadata mismatch after round trip")
	}
	a := db.Systems[1].Benchmarks[3]
	b := got.Systems[1].Benchmarks[3]
	if a.Workload.ID() != b.Workload.ID() {
		t.Fatal("workload mismatch")
	}
	for ri := range a.Runs {
		if a.Runs[ri].Seconds != b.Runs[ri].Seconds {
			t.Fatal("run data mismatch")
		}
		for mi := range a.Runs[ri].Metrics {
			if a.Runs[ri].Metrics[mi] != b.Runs[ri].Metrics[mi] {
				t.Fatal("metric data mismatch")
			}
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.gob.gz")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestCollectValidation(t *testing.T) {
	systems := []*perfsim.System{perfsim.NewIntelSystem()}
	ws := perfsim.TableI()[:2]
	if _, err := Collect(systems, ws, Config{Runs: 1, ProbeRuns: 5, Seed: 1}); err == nil {
		t.Error("Runs < 2 should fail")
	}
	if _, err := Collect(systems, ws, Config{Runs: 10, ProbeRuns: 0, Seed: 1}); err == nil {
		t.Error("ProbeRuns < 1 should fail")
	}
	if _, err := Collect(nil, ws, Config{Runs: 10, ProbeRuns: 5, Seed: 1}); err == nil {
		t.Error("no systems should fail")
	}
	if _, err := Collect(systems, nil, Config{Runs: 10, ProbeRuns: 5, Seed: 1}); err == nil {
		t.Error("no workloads should fail")
	}
}

func TestExportRelTimesCSV(t *testing.T) {
	db := smallCampaign(t, 5)
	intel, _ := db.System("intel")
	var buf bytes.Buffer
	if err := intel.ExportRelTimesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// header + 6 benchmarks x 50 runs
	if len(lines) != 1+6*50 {
		t.Fatalf("csv lines = %d, want %d", len(lines), 1+6*50)
	}
	if lines[0] != "system,suite,benchmark,run,rel_time" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "intel,") {
		t.Errorf("first row = %q", lines[1])
	}
}

func TestRelTimesZeroRuns(t *testing.T) {
	b := &BenchmarkData{}
	rel := b.RelTimes()
	if rel != nil {
		t.Fatalf("RelTimes with no runs = %v, want nil", rel)
	}
	// Regression: the old division by len(secs)==0 produced NaNs.
	b.Runs = []perfsim.Run{{Seconds: 1.0}, {Seconds: 3.0}}
	for _, v := range b.RelTimes() {
		if math.IsNaN(v) {
			t.Fatal("RelTimes produced NaN")
		}
	}
}
