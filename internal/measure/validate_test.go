package measure

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/perfsim"
	"repro/internal/randx"
)

// run builds a valid 3-metric run.
func run(secs float64, metrics ...float64) perfsim.Run {
	if metrics == nil {
		metrics = []float64{100, 200, 300}
	}
	return perfsim.Run{Seconds: secs, Metrics: metrics}
}

func TestValidateRunClasses(t *testing.T) {
	cases := []struct {
		name string
		r    perfsim.Run
		want []string
	}{
		{"valid", run(1.5), nil},
		{"nan duration", run(math.NaN()), []string{DefectNonFiniteDuration}},
		{"inf duration", run(math.Inf(1)), []string{DefectNonFiniteDuration}},
		{"zero duration", run(0), []string{DefectNonPositiveDuration}},
		{"negative duration", run(-3), []string{DefectNonPositiveDuration}},
		{"truncated", run(1, 100, 200), []string{DefectTruncated}},
		{"drifted", run(1, 100, 200, 300, 400), []string{DefectSchemaDrift}},
		{"nan counter", run(1, 100, math.NaN(), 300), []string{DefectNonFiniteCounter}},
		{"inf counter", run(1, 100, math.Inf(-1), 300), []string{DefectNonFiniteCounter}},
		{"negative counter", run(1, 100, -5, 300), []string{DefectNegativeCounter}},
		{"multi", run(-1, 100, math.NaN(), -2),
			[]string{DefectNonPositiveDuration, DefectNonFiniteCounter, DefectNegativeCounter}},
	}
	for _, c := range cases {
		if got := ValidateRun(c.r, 3); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: classes = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestValidateRunsQuarantine(t *testing.T) {
	runs := []perfsim.Run{
		run(1.0),
		run(math.NaN()),
		run(1.1),
		run(1.2, 100, 200), // truncated
		run(1.3),
	}
	valid, rep := ValidateRuns(runs, 3, 6, ValidationPolicy{})
	if len(valid) != 3 {
		t.Fatalf("kept %d runs, want 3", len(valid))
	}
	if rep.Total != 5 || rep.Kept != 3 || rep.Quarantined != 2 || rep.Repaired != 0 {
		t.Errorf("report = %+v", rep)
	}
	if rep.Missing != 1 {
		t.Errorf("Missing = %d, want 1 (expected 6, saw 5)", rep.Missing)
	}
	if rep.ByClass[DefectNonFiniteDuration] != 1 || rep.ByClass[DefectTruncated] != 1 {
		t.Errorf("ByClass = %v", rep.ByClass)
	}
	if rep.Clean() {
		t.Error("dirty set must not report Clean")
	}
	// The input must never be mutated.
	if !math.IsNaN(runs[1].Seconds) || len(runs[3].Metrics) != 2 {
		t.Error("ValidateRuns mutated its input")
	}
}

// TestValidateRunsCleanSetIsNotCopied checks that a run set with no
// defect comes back as the input itself, capacity clipped so an append
// to the survivors cannot write into the input.
func TestValidateRunsCleanSetIsNotCopied(t *testing.T) {
	runs := make([]perfsim.Run, 3, 8)
	for i := range runs {
		runs[i] = run(1 + float64(i)/10)
	}
	valid, rep := ValidateRuns(runs, 3, 0, ValidationPolicy{Repair: true})
	if rep.Kept != 3 || rep.Quarantined != 0 || len(valid) != 3 {
		t.Fatalf("kept %d of a clean set (%+v)", len(valid), rep)
	}
	if &valid[0] != &runs[0] || cap(valid) != 3 {
		t.Errorf("clean set copied or not clipped: cap %d", cap(valid))
	}
}

func TestValidateRunsRepair(t *testing.T) {
	runs := []perfsim.Run{
		run(1.0, 100, 200, 300),
		run(1.1, 110, math.NaN(), 310), // repairable: counter-only defect
		run(1.2, 120, 220, 320),
		run(math.NaN(), 130, math.Inf(1), 330), // NOT repairable: bad duration too
	}
	valid, rep := ValidateRuns(runs, 3, 0, ValidationPolicy{Repair: true})
	if len(valid) != 3 {
		t.Fatalf("kept %d runs, want 3 (2 valid + 1 repaired)", len(valid))
	}
	if rep.Repaired != 1 || rep.Quarantined != 1 {
		t.Errorf("report = %+v, want 1 repaired / 1 quarantined", rep)
	}
	// The repaired run keeps its original position and valid counters.
	fixed := valid[1]
	if fixed.Seconds != 1.1 || fixed.Metrics[0] != 110 || fixed.Metrics[2] != 310 {
		t.Errorf("repaired run altered beyond the bad counter: %+v", fixed)
	}
	// The imputed value is the valid-run median, inside the p1–p99 range.
	if got := fixed.Metrics[1]; got < 200 || got > 220 {
		t.Errorf("imputed counter = %v, want within [200, 220]", got)
	}
	// Without any fully valid reference run, repair must quarantine.
	bad := []perfsim.Run{run(1.0, 1, math.NaN(), 3), run(1.1, 1, math.NaN(), 3)}
	kept, rep2 := ValidateRuns(bad, 3, 0, ValidationPolicy{Repair: true})
	if len(kept) != 0 || rep2.Quarantined != 2 {
		t.Errorf("repair without reference runs: kept=%d report=%+v", len(kept), rep2)
	}
}

func TestSystemValidate(t *testing.T) {
	wl := perfsim.Workload{Suite: "npb", Name: "bt"}
	sd := &SystemData{
		SystemName:  "test",
		MetricNames: []string{"a", "b", "c"},
		Benchmarks: []BenchmarkData{
			{
				Workload:  wl,
				Runs:      []perfsim.Run{run(1.0), run(1.1), run(math.NaN())},
				ProbeRuns: []perfsim.Run{run(0.9)},
			},
			{
				Workload:  perfsim.Workload{Suite: "npb", Name: "lu"},
				Runs:      []perfsim.Run{run(1.0), run(math.NaN())}, // 1 valid -> unusable
				ProbeRuns: []perfsim.Run{run(0.9)},
			},
		},
	}
	clean, reports := sd.Validate(3, 1, ValidationPolicy{})
	if len(reports) != 2 {
		t.Fatalf("got %d reports", len(reports))
	}
	if reports[0].Unusable {
		t.Error("benchmark 0 has 2 valid runs + 1 probe; must be usable")
	}
	if !reports[1].Unusable {
		t.Error("benchmark 1 has 1 valid run; must be unusable")
	}
	if len(clean.Benchmarks[0].Runs) != 2 || len(clean.Benchmarks[1].Runs) != 1 {
		t.Errorf("cleaned run counts = %d/%d",
			len(clean.Benchmarks[0].Runs), len(clean.Benchmarks[1].Runs))
	}
	sq := Summarize("test", reports)
	if sq.Runs.Total != 5 || sq.Runs.Quarantined != 2 {
		t.Errorf("summary totals = %+v", sq.Runs)
	}
}

func TestValidateCleanSystemIsIdentity(t *testing.T) {
	wl := perfsim.Workload{Suite: "npb", Name: "bt"}
	sd := &SystemData{
		SystemName:  "test",
		MetricNames: []string{"a", "b", "c"},
		Benchmarks: []BenchmarkData{{
			Workload:  wl,
			Runs:      []perfsim.Run{run(1.0), run(1.1), run(1.2)},
			ProbeRuns: []perfsim.Run{run(0.9), run(1.05)},
		}},
	}
	clean, reports := sd.Validate(3, 2, ValidationPolicy{})
	if !reports[0].Clean() || reports[0].Unusable {
		t.Fatalf("clean data flagged: %+v", reports[0])
	}
	if !reflect.DeepEqual(clean.Benchmarks[0].Runs, sd.Benchmarks[0].Runs) ||
		!reflect.DeepEqual(clean.Benchmarks[0].ProbeRuns, sd.Benchmarks[0].ProbeRuns) {
		t.Error("validation must pass clean data through bit-identically")
	}
}

// insertionSortBounds is repairBounds with the hand-written insertion
// sort it used before the standard library's stable sort: the oracle
// for TestRepairBoundsMatchesInsertionSort.
func insertionSortBounds(valid []perfsim.Run, nMetrics int) (med, lo, hi []float64) {
	for m := 0; m < nMetrics; m++ {
		xs := make([]float64, len(valid))
		for i := range valid {
			xs[i] = valid[i].Metrics[m]
		}
		for i := 1; i < len(xs); i++ {
			for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
				xs[j], xs[j-1] = xs[j-1], xs[j]
			}
		}
		med = append(med, sortedQuantile(xs, 0.5))
		lo = append(lo, sortedQuantile(xs, 0.01))
		hi = append(hi, sortedQuantile(xs, 0.99))
	}
	return med, lo, hi
}

// TestRepairBoundsMatchesInsertionSort pins the repair clamp to the
// bits of the insertion sort it replaced, on columns full of ties and
// of both signed zeros, where an unstable sort could reorder −0 and +0.
func TestRepairBoundsMatchesInsertionSort(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rng := randx.New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1000} {
		valid := make([]perfsim.Run, n)
		for i := range valid {
			valid[i] = run(1,
				[]float64{0, negZero}[rng.IntN(2)],                 // signed zeros only
				[]float64{0, negZero, 1, 2.5, 2.5, 7}[rng.IntN(6)], // zeros among ties
				float64(rng.IntN(4)),                               // heavy ties
				rng.Float64(),                                      // distinct values
			)
		}
		gotMed, gotLo, gotHi := repairBounds(valid, 4)
		wantMed, wantLo, wantHi := insertionSortBounds(valid, 4)
		for m := 0; m < 4; m++ {
			for _, c := range []struct {
				name      string
				got, want float64
			}{{"median", gotMed[m], wantMed[m]}, {"p1", gotLo[m], wantLo[m]}, {"p99", gotHi[m], wantHi[m]}} {
				if math.Float64bits(c.got) != math.Float64bits(c.want) {
					t.Errorf("n=%d metric %d %s: %v, insertion sort gives %v", n, m, c.name, c.got, c.want)
				}
			}
		}
	}
}
