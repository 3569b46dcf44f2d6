package measure

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/perfsim"
)

// This file is the ingest-validation layer: every Run entering the
// feature/training pipeline is checked against the system's metric
// schema, and runs that fail are quarantined (counted by fault class)
// instead of silently flowing NaNs or misaligned counters into
// profiles and trained models. Real counter streams routinely contain
// gaps and corrupt records (Costello & Bhatele's longitudinal
// monitoring study), and distributional predictors are acutely
// sensitive to contaminated samples, so validation is always on in
// internal/core; the optional repair mode additionally salvages runs
// whose only defect is a corrupt counter value.

// Fault classes reported by run validation.
const (
	// DefectNonFiniteDuration marks a NaN or infinite wall time.
	DefectNonFiniteDuration = "nonfinite_duration"
	// DefectNonPositiveDuration marks a zero or negative wall time.
	DefectNonPositiveDuration = "nonpositive_duration"
	// DefectTruncated marks a counter vector shorter than the schema
	// (a truncated profile record).
	DefectTruncated = "truncated_profile"
	// DefectSchemaDrift marks a counter vector longer than the schema
	// (a record written under a drifted schema).
	DefectSchemaDrift = "schema_drift"
	// DefectNonFiniteCounter marks a NaN or infinite counter total.
	DefectNonFiniteCounter = "nonfinite_counter"
	// DefectNegativeCounter marks a negative counter total (raw perf
	// totals are counts; negative values are corruption).
	DefectNegativeCounter = "negative_counter"
)

// ValidationPolicy tunes ingest validation. The zero value quarantines
// every defective run.
type ValidationPolicy struct {
	// Repair enables winsorize-style repair: a run whose only defects
	// are corrupt counter values (NaN/Inf/negative) keeps its slot,
	// with each bad value replaced by the per-metric median over the
	// fully valid runs, clamped to their p1–p99 range. Runs with
	// duration or schema defects are always quarantined — there is
	// nothing trustworthy to repair against.
	Repair bool
}

// QuarantineReport counts the outcome of validating one run set.
type QuarantineReport struct {
	// Total is the number of runs examined; Kept is how many survived
	// (including repaired ones); Quarantined is how many were dropped;
	// Repaired counts kept runs that needed counter repair.
	Total, Kept, Quarantined, Repaired int
	// Missing is how many runs the campaign promised but the set does
	// not contain (dropped records), when the expectation is known.
	Missing int
	// ByClass counts defects per fault class. A run with several
	// defects is counted once per class, so the sum can exceed
	// Quarantined.
	ByClass map[string]int
}

// Clean reports whether validation passed every run untouched.
func (r *QuarantineReport) Clean() bool {
	return r.Quarantined == 0 && r.Repaired == 0 && r.Missing == 0
}

func (r *QuarantineReport) addClass(class string) {
	if r.ByClass == nil {
		r.ByClass = make(map[string]int)
	}
	r.ByClass[class]++
}

// Merge folds another report into this one — system totals here, and
// the per-cell running quarantine counters of the streaming ingest
// path (internal/drift) which accumulates one report per batch.
func (r *QuarantineReport) Merge(o QuarantineReport) {
	r.Total += o.Total
	r.Kept += o.Kept
	r.Quarantined += o.Quarantined
	r.Repaired += o.Repaired
	r.Missing += o.Missing
	for class, n := range o.ByClass {
		if r.ByClass == nil {
			r.ByClass = make(map[string]int)
		}
		r.ByClass[class] += n
	}
}

// BenchmarkQuarantine is the per-benchmark validation outcome: one
// report for the distribution-measurement runs and one for the probe
// runs, plus whether the benchmark survives with enough data to be
// used at all.
type BenchmarkQuarantine struct {
	// Benchmark is the "suite/name" workload ID.
	Benchmark string
	// Runs and Probes report on the two run sets separately.
	Runs, Probes QuarantineReport
	// Unusable is true when fewer than 2 measurement runs or no probe
	// runs survived: no trustworthy distribution or profile can be
	// built, and consumers must error on (or exclude) this benchmark
	// rather than emit an empty distribution.
	Unusable bool
}

// Clean reports whether both run sets validated untouched.
func (b *BenchmarkQuarantine) Clean() bool {
	return b.Runs.Clean() && b.Probes.Clean()
}

// classifyRun returns the defect classes of one run against an
// nMetrics-wide schema (nil for a valid run), and whether the defects
// are confined to counter values (and therefore repairable).
func classifyRun(r *perfsim.Run, nMetrics int) (classes []string, counterOnly bool) {
	switch {
	case math.IsNaN(r.Seconds) || math.IsInf(r.Seconds, 0):
		classes = append(classes, DefectNonFiniteDuration)
	case r.Seconds <= 0:
		classes = append(classes, DefectNonPositiveDuration)
	}
	switch {
	case len(r.Metrics) < nMetrics:
		classes = append(classes, DefectTruncated)
	case len(r.Metrics) > nMetrics:
		classes = append(classes, DefectSchemaDrift)
	}
	counterOnly = len(classes) == 0
	seenNonFinite, seenNegative := false, false
	for _, v := range r.Metrics {
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			seenNonFinite = true
		case v < 0:
			seenNegative = true
		}
	}
	if seenNonFinite {
		classes = append(classes, DefectNonFiniteCounter)
	}
	if seenNegative {
		classes = append(classes, DefectNegativeCounter)
	}
	return classes, counterOnly && (seenNonFinite || seenNegative)
}

// ValidateRun reports the defect classes of one run against an
// nMetrics-wide schema; a valid run yields nil.
func ValidateRun(r perfsim.Run, nMetrics int) []string {
	classes, _ := classifyRun(&r, nMetrics)
	return classes
}

// ValidateRuns partitions runs into the valid survivors and the
// quarantine, never mutating the input. expected is the campaign's
// promised run count (0 when unknown) and only feeds the Missing
// counter. Under ValidationPolicy.Repair, runs whose only defects are
// corrupt counter values are repaired in a copy (median imputation
// clamped to the valid runs' p1–p99 range) and kept; when no fully
// valid run exists to repair against, they are quarantined like
// everything else. When every run is valid, the survivors are runs
// itself, capacity clipped, so a clean run set costs no copy; callers
// treat the survivors as read-only either way.
func ValidateRuns(runs []perfsim.Run, nMetrics, expected int, pol ValidationPolicy) ([]perfsim.Run, QuarantineReport) {
	rep := QuarantineReport{Total: len(runs)}
	if expected > len(runs) {
		rep.Missing = expected - len(runs)
	}
	// valid stays nil until the first defective run: up to it, the
	// survivors are a prefix of runs.
	var valid []perfsim.Run
	type repairable struct {
		at  int // insertion position among survivors, for stable order
		run perfsim.Run
	}
	var toRepair []repairable
	for i := range runs {
		classes, counterOnly := classifyRun(&runs[i], nMetrics)
		if len(classes) == 0 {
			if valid != nil {
				valid = append(valid, runs[i])
			}
			continue
		}
		if valid == nil {
			valid = append(make([]perfsim.Run, 0, len(runs)), runs[:i]...)
		}
		for _, c := range classes {
			rep.addClass(c)
		}
		if pol.Repair && counterOnly {
			toRepair = append(toRepair, repairable{at: len(valid) + len(toRepair), run: runs[i]})
			continue
		}
		rep.Quarantined++
	}
	if valid == nil {
		rep.Kept = len(runs)
		return runs[:len(runs):len(runs)], rep
	}
	if len(toRepair) > 0 && len(valid) > 0 {
		med, lo, hi := repairBounds(valid, nMetrics)
		out := make([]perfsim.Run, 0, len(valid)+len(toRepair))
		out = append(out, valid...)
		for _, r := range toRepair {
			fixed := r.run
			fixed.Metrics = append([]float64(nil), r.run.Metrics...)
			for m, v := range fixed.Metrics {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					fixed.Metrics[m] = math.Min(math.Max(med[m], lo[m]), hi[m])
				}
			}
			// Re-insert at the run's original relative position so a
			// repaired campaign keeps its run order.
			out = append(out, perfsim.Run{})
			copy(out[r.at+1:], out[r.at:])
			out[r.at] = fixed
			rep.Repaired++
		}
		valid = out
	} else {
		// No reference runs to repair against: quarantine the rest.
		rep.Quarantined += len(toRepair)
	}
	rep.Kept = len(valid)
	return valid, rep
}

// repairBounds computes the per-metric median and p1/p99 clamp range
// over fully valid runs. The sort is stable, so equal values (−0 and
// +0 among them) keep their run order.
func repairBounds(valid []perfsim.Run, nMetrics int) (med, lo, hi []float64) {
	med = make([]float64, nMetrics)
	lo = make([]float64, nMetrics)
	hi = make([]float64, nMetrics)
	col := make([]float64, len(valid))
	for m := 0; m < nMetrics; m++ {
		for i := range valid {
			col[i] = valid[i].Metrics[m]
		}
		slices.SortStableFunc(col, cmp.Compare[float64])
		med[m] = sortedQuantile(col, 0.5)
		lo[m] = sortedQuantile(col, 0.01)
		hi[m] = sortedQuantile(col, 0.99)
	}
	return med, lo, hi
}

// sortedQuantile is the linear-interpolation quantile of a sorted slice.
func sortedQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// ValidateBenchmark validates one benchmark's measurement and probe
// runs against the schema, returning the cleaned copy and its report.
// expectedRuns/expectedProbes are the campaign's promised counts (0
// when unknown).
func ValidateBenchmark(b *BenchmarkData, nMetrics, expectedRuns, expectedProbes int, pol ValidationPolicy) (BenchmarkData, BenchmarkQuarantine) {
	runs, runRep := ValidateRuns(b.Runs, nMetrics, expectedRuns, pol)
	probes, probeRep := ValidateRuns(b.ProbeRuns, nMetrics, expectedProbes, pol)
	q := BenchmarkQuarantine{
		Benchmark: b.Workload.ID(),
		Runs:      runRep,
		Probes:    probeRep,
		Unusable:  len(runs) < 2 || len(probes) < 1,
	}
	return BenchmarkData{Workload: b.Workload, Runs: runs, ProbeRuns: probes}, q
}

// Validate checks every benchmark of the system against its metric
// schema and returns a cleaned copy plus the per-benchmark quarantine
// reports (aligned with s.Benchmarks). A run set that validation left
// whole is shared with s rather than copied (see ValidateRuns), so the
// copy is read-only. Benchmarks left without enough valid data are
// retained in the copy but flagged Unusable — consumers must exclude
// them from training and error on direct requests rather than emit an
// empty distribution. expectedRuns/expectedProbes are the
// campaign parameters (0 when unknown).
func (s *SystemData) Validate(expectedRuns, expectedProbes int, pol ValidationPolicy) (*SystemData, []BenchmarkQuarantine) {
	clean := &SystemData{
		SystemName:  s.SystemName,
		MetricNames: append([]string(nil), s.MetricNames...),
		Benchmarks:  make([]BenchmarkData, len(s.Benchmarks)),
	}
	reports := make([]BenchmarkQuarantine, len(s.Benchmarks))
	for i := range s.Benchmarks {
		clean.Benchmarks[i], reports[i] = ValidateBenchmark(
			&s.Benchmarks[i], len(s.MetricNames), expectedRuns, expectedProbes, pol)
	}
	return clean, reports
}

// SystemQuarantine aggregates one system's validation outcome.
type SystemQuarantine struct {
	System string
	// Runs and Probes are the system-wide totals.
	Runs, Probes QuarantineReport
	// Benchmarks holds the per-benchmark reports.
	Benchmarks []BenchmarkQuarantine
}

// Summarize rolls per-benchmark reports up into system totals.
func Summarize(system string, reports []BenchmarkQuarantine) SystemQuarantine {
	out := SystemQuarantine{System: system, Benchmarks: reports}
	for i := range reports {
		out.Runs.Merge(reports[i].Runs)
		out.Probes.Merge(reports[i].Probes)
	}
	return out
}
