package core

import (
	"fmt"

	"repro/internal/distrep"
	"repro/internal/features"
	"repro/internal/measure"
	"repro/internal/ml"
)

// UC2Config parameterizes use case 2: predicting an application's
// distribution on a target system from its profile and measured
// distribution on a source system.
type UC2Config struct {
	// Rep selects the distribution representation (used both for the
	// input-side encoding of the source distribution and for the
	// predicted target distribution).
	Rep distrep.Kind
	// Model selects the prediction model.
	Model Model
	// Bins is the histogram bin count (0 = default).
	Bins int
	// Seed drives all stochastic components.
	Seed uint64
	// Models tunes model hyperparameters (ablations).
	Models ModelOptions
}

// uc2ProfileRuns is the number of source-system runs the profile part
// of a UC2 input is built from; the source distribution itself is
// encoded from all measured runs.
const uc2ProfileRuns = 100

func (c UC2Config) String() string {
	rep, _ := newRepresentation(c.Rep, c.Bins)
	return fmt.Sprintf("UC2{rep=%s model=%s}", rep.Name(), c.Model)
}

// buildUC2 assembles the system-to-system learning problem: inputs are
// the source-system profile concatenated with the source-system
// distribution encoding; targets are the target-system distribution
// encoding. Both systems pass ingest validation first, through
// validate and without counter repair; a benchmark must keep at least
// two valid measurement runs on each side to stay in the dataset
// (probe runs are a UC1 concern and do not gate UC2).
func buildUC2(src, dst *measure.SystemData, cfg UC2Config, validate validateFunc) (*uc1Data, error) {
	rep, err := newRepresentation(cfg.Rep, cfg.Bins)
	if err != nil {
		return nil, err
	}
	cleanSrc, srcReports := validate(src, false)
	cleanDst, dstReports := validate(dst, false)
	d := &uc1Data{
		rep:     rep,
		dataset: &ml.Dataset{},
		quarantine: map[string][]measure.BenchmarkQuarantine{
			src.SystemName: srcReports,
			dst.SystemName: dstReports,
		},
		unusable: map[string]bool{},
	}
	dstIdx := make(map[string]int, len(cleanDst.Benchmarks))
	for i := range cleanDst.Benchmarks {
		dstIdx[cleanDst.Benchmarks[i].Workload.ID()] = i
	}
	for i := range cleanSrc.Benchmarks {
		sb := &cleanSrc.Benchmarks[i]
		id := sb.Workload.ID()
		j, ok := dstIdx[id]
		if !ok {
			return nil, fmt.Errorf("core: benchmark %s missing on target system %s", id, dst.SystemName)
		}
		db := &cleanDst.Benchmarks[j]
		if len(sb.Runs) < 2 || len(db.Runs) < 2 {
			d.unusable[id] = true
			continue
		}
		n := min(uc2ProfileRuns, len(sb.Runs))
		values := make([]float64, 0, 4*len(src.MetricNames)+rep.Dim())
		values, err := features.AppendValues(values, sb.Runs[:n], len(src.MetricNames), false)
		if err != nil {
			return nil, fmt.Errorf("core: source profile of %s: %w", id, err)
		}
		encoded := rep.Encode(sb.RelTimes())
		input := append(values, encoded...)
		dstRel := db.RelTimes()
		d.dataset.X = append(d.dataset.X, input)
		d.dataset.Y = append(d.dataset.Y, rep.Encode(dstRel))
		d.rel = append(d.rel, dstRel)
		d.ids = append(d.ids, id)
		if d.dataset.FeatureNames == nil {
			d.dataset.FeatureNames = append(features.Names(src.MetricNames, false), features.LabeledNames("src-dist", len(encoded))...)
		}
	}
	if len(d.ids) < 2 {
		return nil, fmt.Errorf("core: UC2 %s->%s has %d usable benchmarks after ingest validation quarantined %d: %w",
			src.SystemName, dst.SystemName, len(d.ids), len(d.unusable), ErrBenchmarkQuarantined)
	}
	if err := d.dataset.Validate(); err != nil {
		return nil, fmt.Errorf("core: UC2 dataset: %w", err)
	}
	d.measured = make([]measuredCell, len(d.rel))
	return d, nil
}

// EvaluateUC2 runs leave-one-benchmark-out cross-validation of use
// case 2 (source system → target system) and returns per-benchmark
// scores in benchmark order.
func EvaluateUC2(src, dst *measure.SystemData, cfg UC2Config) ([]BenchScore, error) {
	data, err := buildUC2(src, dst, cfg, validateFresh)
	if err != nil {
		return nil, err
	}
	scores, _, err := evaluateLOGO(data.dataset, data.rel, data.ids, data.rep, cfg.Model, cfg.Models, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return scores, nil
}

// PredictUC2 predicts one benchmark's distribution on the target system
// from its source-system measurements, training on all other benchmarks
// (the paper's Figure 9 overlays). It returns the predicted and measured
// target-system relative-time samples.
func PredictUC2(src, dst *measure.SystemData, benchmarkID string, cfg UC2Config) (predicted, actual []float64, err error) {
	data, err := buildUC2(src, dst, cfg, validateFresh)
	if err != nil {
		return nil, nil, err
	}
	if data.unusable[benchmarkID] {
		return nil, nil, fmt.Errorf("core: %w: %q has no usable validated data", ErrBenchmarkQuarantined, benchmarkID)
	}
	return predictHoldout(data.dataset, data.rel, data.ids, data.rep, benchmarkID, cfg.Model, cfg.Models, cfg.Seed)
}
