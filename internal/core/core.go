package core

import (
	"fmt"
	"strings"

	"repro/internal/distrep"
	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/ml/knn"
	"repro/internal/ml/linreg"
	"repro/internal/ml/xgb"
)

// Model selects the prediction-model family (Section III-B3).
type Model int

// The paper's three models, plus the Ridge linear baseline (not part of
// the paper's comparison).
const (
	KNN Model = iota
	RandomForest
	XGBoost
	Ridge
)

// String names the model as the paper does.
func (m Model) String() string {
	switch m {
	case KNN:
		return "kNN"
	case RandomForest:
		return "RF"
	case XGBoost:
		return "XGBoost"
	case Ridge:
		return "Ridge"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// ParseModel resolves a model name from a request or a command line
// ("" = the paper's kNN), case-insensitively.
func ParseModel(name string) (Model, error) {
	switch strings.ToLower(name) {
	case "", "knn":
		return KNN, nil
	case "rf", "randomforest", "forest":
		return RandomForest, nil
	case "xgboost", "xgb":
		return XGBoost, nil
	case "ridge", "linear":
		return Ridge, nil
	default:
		return 0, fmt.Errorf("unknown model %q (want knn, rf, xgboost, or ridge)", name)
	}
}

// Models lists the paper's models in paper order.
func Models() []Model { return []Model{KNN, RandomForest, XGBoost} }

// ModelsExtended additionally includes the Ridge linear baseline.
func ModelsExtended() []Model { return []Model{KNN, RandomForest, XGBoost, Ridge} }

// ModelOptions tunes the model families; the zero value selects the
// paper's settings (kNN with k=15 and cosine distance; default forest
// and boosting hyperparameters). The knobs exist for the ablation
// benchmarks.
type ModelOptions struct {
	// KNNK overrides k (default 15).
	KNNK int
	// KNNMetric overrides the kNN distance (default cosine).
	KNNMetric knn.Metric
	// KNNMetricSet marks KNNMetric as intentionally set (so Euclidean,
	// the zero value of the enum's neighbor, can be selected).
	KNNMetricSet bool
	// ForestTrees overrides the ensemble size (default 100).
	ForestTrees int
	// XGBRounds overrides boosting rounds (default 60).
	XGBRounds int
	// XGBDepth overrides tree depth (default 3).
	XGBDepth int
}

// newModel builds a fresh regressor of the given family.
func newModel(m Model, seed uint64, opts ModelOptions) (ml.Regressor, error) {
	switch m {
	case KNN:
		k := opts.KNNK
		if k <= 0 {
			k = 15 // the paper's setting
		}
		r := knn.New(k)
		if opts.KNNMetricSet {
			r.Metric = opts.KNNMetric
		}
		return r, nil
	case RandomForest:
		trees := opts.ForestTrees
		if trees <= 0 {
			trees = 100
		}
		return forest.New(forest.Config{NumTrees: trees, Seed: seed}), nil
	case XGBoost:
		rounds := opts.XGBRounds
		if rounds <= 0 {
			rounds = 60
		}
		depth := opts.XGBDepth
		if depth <= 0 {
			depth = 3
		}
		return xgb.New(xgb.Config{
			NumRounds:    rounds,
			MaxDepth:     depth,
			LearningRate: 0.12,
			Subsample:    0.9,
			ColSample:    0.8,
			Seed:         seed,
		}), nil
	case Ridge:
		return linreg.New(10), nil
	default:
		return nil, fmt.Errorf("core: unknown model %d", int(m))
	}
}

// newRepresentation builds the distribution representation, applying the
// default bin count when unset.
func newRepresentation(kind distrep.Kind, bins int) (distrep.Representation, error) {
	if bins <= 0 {
		bins = distrep.DefaultBins
	}
	return distrep.New(kind, bins)
}

// BenchScore is the evaluation outcome for one held-out benchmark.
type BenchScore struct {
	// Benchmark is the "suite/name" identifier.
	Benchmark string
	// KS is the two-sample Kolmogorov–Smirnov statistic between the
	// predicted and measured relative-time distributions (0 = perfect).
	KS float64
	// W1 is the 1-Wasserstein distance, a complementary area-based score.
	W1 float64
	// AD, CvM, and Energy are further divergences (Anderson–Darling,
	// Cramér–von Mises, energy distance) used by the extension
	// experiment that checks whether the paper's conclusions are
	// KS-specific.
	AD, CvM, Energy float64
	// PredictedModes and ActualModes count KDE modes, quantifying the
	// paper's qualitative multi-modality claims.
	PredictedModes, ActualModes int
}

// KSValues extracts the KS column for violin summaries.
func KSValues(scores []BenchScore) []float64 {
	out := make([]float64, len(scores))
	for i, s := range scores {
		out[i] = s.KS
	}
	return out
}
