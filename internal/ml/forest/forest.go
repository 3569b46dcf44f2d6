// Package forest implements a random-forest regressor (Breiman 2001) on
// top of the CART trees in internal/ml/tree: bootstrap-resampled trees
// with per-split feature subsampling, predictions averaged across the
// ensemble. It replaces scikit-learn's RandomForestRegressor in the
// paper's model comparison.
package forest

import (
	"context"
	"fmt"
	"math"

	"repro/internal/ml"
	"repro/internal/ml/tree"
	"repro/internal/numeric"
	"repro/internal/parallel"
	"repro/internal/randx"
)

// Config controls the ensemble.
type Config struct {
	// NumTrees is the ensemble size (default 100).
	NumTrees int
	// MaxDepth bounds each tree (<= 0: unlimited).
	MaxDepth int
	// MinSamplesLeaf per tree leaf (default 1).
	MinSamplesLeaf int
	// MaxFeatures sampled per split; 0 selects ceil(p/3), the classic
	// regression-forest heuristic; negative uses all features.
	MaxFeatures int
	// Seed makes training deterministic.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.NumTrees <= 0 {
		c.NumTrees = 100
	}
	if c.MinSamplesLeaf < 1 {
		c.MinSamplesLeaf = 1
	}
	return c
}

// Regressor is a fitted random forest.
type Regressor struct {
	cfg   Config
	trees []*tree.Tree
	nOut  int
}

// New returns an unfitted forest.
func New(cfg Config) *Regressor { return &Regressor{cfg: cfg.withDefaults()} }

// Name implements ml.Regressor.
func (f *Regressor) Name() string { return fmt.Sprintf("RandomForest(n=%d)", f.cfg.NumTrees) }

// Fit trains the ensemble, growing trees concurrently on the shared
// worker pool (bounded by GOMAXPROCS). The per-tree random streams are
// split from the seed before dispatch, so the fitted forest is
// bit-identical to a sequential fit regardless of worker count. On
// error the regressor is reset to its unfitted state.
func (f *Regressor) Fit(d *ml.Dataset) error {
	f.trees, f.nOut = nil, 0
	if err := d.Validate(); err != nil {
		return fmt.Errorf("forest: %w", err)
	}
	maxFeatures := f.cfg.MaxFeatures
	if maxFeatures == 0 {
		maxFeatures = int(math.Ceil(float64(d.NumFeatures()) / 3))
	}
	if maxFeatures < 0 || maxFeatures > d.NumFeatures() {
		maxFeatures = d.NumFeatures()
	}
	rng := randx.New(f.cfg.Seed ^ 0xF0123456789ABCDE)
	n := d.NumExamples()
	// Tree t's bootstrap and feature subsampling depend only on stream t,
	// never on what the other workers consume.
	treeRNGs := rng.SplitN(f.cfg.NumTrees)
	trees := make([]*tree.Tree, f.cfg.NumTrees)
	// Every column is sorted once here; all trees share the order
	// read-only, and each worker lays its trees out in its own segment
	// scratch.
	order := ml.SortColumns(d.X)
	workers := parallel.Workers(0, f.cfg.NumTrees)
	segs := make(chan *ml.Segments, workers)
	for w := 0; w < workers; w++ {
		segs <- ml.NewSegments(order, d.NumFeatures())
	}
	//lint:allow ctxflow Fit is synchronous and bit-reproducible; a caller deadline would make training results depend on timing
	err := parallel.ForEach(context.Background(), f.cfg.NumTrees, 0, func(_ context.Context, t int) error {
		seg := <-segs
		defer func() { segs <- seg }()
		treeRNG := treeRNGs[t]
		boot := treeRNG.SampleWithReplacement(n, n)
		tr := tree.New(tree.Config{
			MaxDepth:       f.cfg.MaxDepth,
			MinSamplesLeaf: f.cfg.MinSamplesLeaf,
			MaxFeatures:    maxFeatures,
			Rand:           treeRNG,
		})
		if err := tr.FitIndices(d, seg, boot); err != nil {
			return fmt.Errorf("forest: tree %d: %w", t, err)
		}
		trees[t] = tr
		return nil
	})
	if err != nil {
		return err
	}
	f.trees = trees
	f.nOut = d.NumOutputs()
	return nil
}

// FeatureImportance returns the per-feature gain importance averaged
// over the ensemble, normalized to sum to 1 (all zeros when no tree ever
// split). The result identifies which profile metrics drive the
// distribution prediction.
func (f *Regressor) FeatureImportance() []float64 {
	if len(f.trees) == 0 {
		panic("forest: FeatureImportance before Fit")
	}
	out := f.trees[0].FeatureImportance() // a fresh copy; accumulate in place
	for _, tr := range f.trees[1:] {
		for i, v := range tr.FeatureImportance() {
			out[i] += v
		}
	}
	total := numeric.Sum(out)
	if total <= 0 {
		return make([]float64, len(out))
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

// Predict averages the trees' predictions.
func (f *Regressor) Predict(x []float64) []float64 {
	out := make([]float64, f.nOut)
	f.PredictInto(x, out)
	return out
}

// PredictInto writes the ensemble average for x into out (len
// NumOutputs) without allocating: every tree contributes its leaf via
// the flattened kernel, accumulated in ensemble order, so the result is
// bit-identical to Predict.
func (f *Regressor) PredictInto(x, out []float64) {
	if len(f.trees) == 0 {
		panic("forest: Predict before Fit")
	}
	for j := range out {
		out[j] = 0
	}
	for _, tr := range f.trees {
		tr.AddLeafInto(x, out)
	}
	inv := 1 / float64(len(f.trees))
	for j := range out {
		out[j] *= inv
	}
}

// NumOutputs implements ml.BatchIntoPredictor.
func (f *Regressor) NumOutputs() int { return f.nOut }

// NumFeatures returns the input width the forest was fitted at.
func (f *Regressor) NumFeatures() int { return f.trees[0].NumFeatures() }

// PredictBatchInto implements ml.BatchIntoPredictor: rows fan out
// across the shared worker pool (bounded by GOMAXPROCS) and each is
// filled in place by the allocation-free kernel. Row results are
// independent, so the output is bit-identical at any worker count.
func (f *Regressor) PredictBatchInto(ctx context.Context, X, out [][]float64) {
	if len(f.trees) == 0 {
		panic("forest: Predict before Fit")
	}
	_ = parallel.ForEach(ctx, len(X), 0, func(_ context.Context, i int) error {
		f.PredictInto(X[i], out[i])
		return nil
	})
}
