// Package features builds the application profiles the paper feeds its
// prediction models (Section III-B1): application-independent perf
// metrics normalized per second, and — when a profile is built from
// multiple runs — the mean, standard deviation, skewness, and kurtosis
// of each normalized metric across the runs.
package features

import (
	"fmt"
	"slices"

	"repro/internal/perfsim"
	"repro/internal/stats"
)

// Profile is the input feature vector of one application on one system,
// together with the generated feature names (for reports and debugging).
type Profile struct {
	Values []float64
	Names  []string
}

// FromRuns builds a profile from n runs following the paper's recipe:
// each raw counter total is divided by the run's duration ("relative
// metrics normalized per second to ensure that the metrics have the
// same scale across applications"), then the first four moments of each
// normalized metric across the runs become the features. With a single
// run the std/skew/kurt moments are degenerate (0/0/3) but retained so
// the feature layout is identical for every sample count.
func FromRuns(runs []perfsim.Run, metricNames []string) (*Profile, error) {
	return profile(runs, metricNames, false)
}

// MeanOnly builds the reduced profile used by the feature-moments
// ablation: just the mean per-second value of each metric.
func MeanOnly(runs []perfsim.Run, metricNames []string) (*Profile, error) {
	return profile(runs, metricNames, true)
}

func profile(runs []perfsim.Run, metricNames []string, meanOnly bool) (*Profile, error) {
	values, err := AppendValues(nil, runs, len(metricNames), meanOnly)
	if err != nil {
		return nil, err
	}
	return &Profile{Values: values, Names: Names(metricNames, meanOnly)}, nil
}

// AppendValues appends the profile of runs, over a schema of
// numMetrics metrics, to dst and returns the extended slice: the four
// moments of each metric per second (FromRuns' layout), or with
// meanOnly the means alone (MeanOnly's). Names gives the matching
// feature names, which depend on the schema alone.
func AppendValues(dst []float64, runs []perfsim.Run, numMetrics int, meanOnly bool) ([]float64, error) {
	if len(runs) == 0 {
		return dst, fmt.Errorf("features: no runs")
	}
	for i, r := range runs {
		if len(r.Metrics) != numMetrics {
			return dst, fmt.Errorf("features: run %d has %d metrics, schema has %d", i, len(r.Metrics), numMetrics)
		}
		if r.Seconds <= 0 {
			return dst, fmt.Errorf("features: run %d has non-positive duration %v", i, r.Seconds)
		}
	}
	width := 4
	if meanOnly {
		width = 1
	}
	dst = slices.Grow(dst, width*numMetrics)
	perSec := make([]float64, len(runs))
	for m := 0; m < numMetrics; m++ {
		for ri, r := range runs {
			perSec[ri] = r.Metrics[m] / r.Seconds
		}
		mom := stats.ComputeMoments4(perSec)
		if meanOnly {
			dst = append(dst, mom.Mean)
		} else {
			dst = append(dst, mom.Mean, mom.Std, mom.Skew, mom.Kurt)
		}
	}
	return dst, nil
}

// Names returns the feature names of AppendValues' layout over the
// schema metricNames.
func Names(metricNames []string, meanOnly bool) []string {
	if meanOnly {
		names := make([]string, len(metricNames))
		for m, name := range metricNames {
			names[m] = name + "/sec:mean"
		}
		return names
	}
	names := make([]string, 0, 4*len(metricNames))
	for _, name := range metricNames {
		names = append(names, name+"/sec:mean", name+"/sec:std", name+"/sec:skew", name+"/sec:kurt")
	}
	return names
}

// LabeledNames names n non-metric features prefix[0] … prefix[n-1],
// for vectors appended to a profile (use case 2 appends the source
// system's distribution representation).
func LabeledNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s[%d]", prefix, i)
	}
	return names
}
