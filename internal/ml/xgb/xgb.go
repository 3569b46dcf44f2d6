// Package xgb implements gradient-boosted regression trees in the style
// of XGBoost (Chen & Guestrin 2016): trees are grown greedily on the
// second-order Taylor expansion of the loss, with L2-regularized leaf
// weights, minimum-gain (γ) pruning, shrinkage, and row/column
// subsampling. For the squared-error objective used here the gradient
// is (ŷ − y) and the hessian is 1, so the leaf weight is
// −ΣG/(ΣH + λ) and the split gain is the standard XGBoost formula
//
//	gain = ½·[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ.
//
// Multi-output targets are handled by boosting one ensemble per output,
// matching how XGBoost is applied to multi-output regression in the
// paper's Python workflow.
package xgb

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/ml"
	"repro/internal/numeric"
	"repro/internal/parallel"
	"repro/internal/randx"
)

// Config controls boosting.
type Config struct {
	// NumRounds is the number of boosting rounds per output (default 100).
	NumRounds int
	// LearningRate is the shrinkage η (default 0.1).
	LearningRate float64
	// MaxDepth per tree (default 3).
	MaxDepth int
	// Lambda is the L2 regularization on leaf weights. Zero selects the
	// default of 1; any negative value explicitly disables regularization
	// (λ = 0), mirroring the forest-style MaxFeatures sentinel.
	Lambda float64
	// Gamma is the minimum split gain (default 0).
	Gamma float64
	// MinChildWeight is the minimum hessian sum per child (default 1).
	MinChildWeight float64
	// Subsample is the row-sampling fraction per tree in (0, 1]
	// (default 1).
	Subsample float64
	// ColSample is the feature-sampling fraction per tree in (0, 1]
	// (default 1).
	ColSample float64
	// Seed makes training deterministic.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.NumRounds <= 0 {
		c.NumRounds = 100
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 3
	}
	if c.Lambda == 0 {
		c.Lambda = 1
	} else if c.Lambda < 0 {
		c.Lambda = 0 // explicit "no regularization" sentinel
	}
	if c.MinChildWeight <= 0 {
		c.MinChildWeight = 1
	}
	if c.Subsample <= 0 || c.Subsample > 1 {
		c.Subsample = 1
	}
	if c.ColSample <= 0 || c.ColSample > 1 {
		c.ColSample = 1
	}
	return c
}

// flatEnsemble is one output's fitted boosting ensemble: every round's
// tree in preorder, packed into a single struct-of-arrays node table.
// Fit grows the trees straight into it and DecodeWire reads them back
// into it; the kernel walks it iteratively with no pointer chasing and
// no allocation. An internal row's left child is the next row.
//
// Encoding: feature[i] >= 0 marks an internal node with children
// left[i]/right[i]; feature[i] == flatLeaf marks a leaf whose weight is
// stored in threshold[i] (a leaf has no split threshold, so the slot is
// free and the table stays four arrays wide). roots[r] indexes round
// r's root node.
type flatEnsemble struct {
	roots     []int32
	feature   []int32
	threshold []float64
	left      []int32
	right     []int32
}

// flatLeaf is the feature sentinel marking a leaf row in the table.
const flatLeaf = int32(-1)

// add appends a row — a split on feature at threshold, or a leaf
// (feature flatLeaf) of weight threshold — and returns its index. The
// caller sets a split's right child once its left subtree is in the
// table.
func (f *flatEnsemble) add(feature int32, threshold float64) int32 {
	i := int32(len(f.feature))
	f.feature = append(f.feature, feature)
	f.threshold = append(f.threshold, threshold)
	f.left = append(f.left, i+1)
	f.right = append(f.right, 0)
	return i
}

// trim copies each column to its length, so a finished table does not
// keep append's growth slack for the model's lifetime.
func (f *flatEnsemble) trim() {
	f.feature = slices.Clone(f.feature)
	f.threshold = slices.Clone(f.threshold)
	f.left = slices.Clone(f.left)
	f.right = slices.Clone(f.right)
}

// leafWeight routes x from row i to its leaf and returns the leaf's
// weight. `x <= threshold` is false for NaN, so a NaN feature follows
// the right branch: that is the ensemble's NaN-routing contract.
func (f *flatEnsemble) leafWeight(i int32, x []float64) float64 {
	ft, th, lt, rt := f.feature, f.threshold, f.left, f.right
	for ft[i] >= 0 {
		if x[ft[i]] <= th[i] {
			i = lt[i]
		} else {
			i = rt[i]
		}
	}
	return th[i]
}

// Regressor is a fitted gradient-boosting model.
type Regressor struct {
	cfg       Config
	baseScore []float64      // per-output initial prediction
	flat      []flatEnsemble // [output]; nil until fitted or decoded
}

// New returns an unfitted booster.
func New(cfg Config) *Regressor { return &Regressor{cfg: cfg.withDefaults()} }

// Name implements ml.Regressor.
func (x *Regressor) Name() string {
	return fmt.Sprintf("XGBoost(rounds=%d,depth=%d,eta=%g)", x.cfg.NumRounds, x.cfg.MaxDepth, x.cfg.LearningRate)
}

// Fit trains one boosted ensemble per output dimension. The outputs are
// independent given their pre-split random streams, so they are boosted
// concurrently on the shared worker pool (bounded by GOMAXPROCS); the
// fitted model is bit-identical to a sequential fit regardless of
// worker count. On error the regressor is reset to its unfitted state.
func (x *Regressor) Fit(d *ml.Dataset) error {
	x.baseScore, x.flat = nil, nil
	if err := d.Validate(); err != nil {
		return fmt.Errorf("xgb: %w", err)
	}
	n := d.NumExamples()
	nf := d.NumFeatures()
	nOut := d.NumOutputs()
	rng := randx.New(x.cfg.Seed ^ 0xABCDEF0123456789)
	// Output out's row/column subsampling depends only on stream out,
	// never on what the other workers consume.
	outRNGs := rng.SplitN(nOut)
	baseScore := make([]float64, nOut)
	flat := make([]flatEnsemble, nOut)
	allCols := make([]int, nf)
	for f := range allCols {
		allCols[f] = f
	}
	// Every column is sorted once here; all output workers share the
	// order read-only, and each worker lays a tree's columns out in its
	// own segment scratch.
	order := ml.SortColumns(d.X)
	workers := parallel.Workers(0, nOut)
	segs := make(chan *ml.Segments, workers)
	for w := 0; w < workers; w++ {
		segs <- ml.NewSegments(order, sampleSize(x.cfg.ColSample, nf))
	}
	//lint:allow ctxflow Fit is synchronous and bit-reproducible; a caller deadline would make training results depend on timing
	err := parallel.ForEach(context.Background(), nOut, 0, func(_ context.Context, out int) error {
		seg := <-segs
		defer func() { segs <- seg }()
		y := make([]float64, n)
		for i := range y {
			y[i] = d.Y[i][out]
		}
		base := numeric.Mean(y)
		baseScore[out] = base

		pred := make([]float64, n)
		for i := range pred {
			pred[i] = base
		}
		fe := &flat[out]
		fe.roots = make([]int32, 0, x.cfg.NumRounds)
		g := &grower{
			cfg:  &x.cfg,
			fe:   fe,
			seg:  seg,
			grad: make([]float64, n),
			hess: make([]float64, n),
		}
		outRNG := outRNGs[out]
		rowBuf := make([]int, n)
		var rowSampler, colSampler randx.Sampler
		for round := 0; round < x.cfg.NumRounds; round++ {
			for i := range g.grad {
				g.grad[i] = pred[i] - y[i] // squared loss
				g.hess[i] = 1
			}
			g.rows = x.sampleRows(outRNG, &rowSampler, rowBuf)
			g.cols = x.sampleCols(outRNG, &colSampler, allCols)
			seg.Load(g.cols, g.rows)
			root := int32(len(fe.feature))
			fe.roots = append(fe.roots, root)
			g.buildTree(0, len(g.rows), 0)
			for i := 0; i < n; i++ {
				pred[i] += x.cfg.LearningRate * fe.leafWeight(root, d.X[i])
			}
		}
		fe.trim()
		return nil
	})
	if err != nil {
		return err
	}
	x.baseScore = baseScore
	x.flat = flat
	return nil
}

// sampleSize is the number of indices a sampling fraction in (0, 1]
// keeps of n, at least one.
func sampleSize(frac float64, n int) int {
	if frac >= 1 {
		return n
	}
	return max(int(frac*float64(n)), 1)
}

// sampleRows returns the round's rows in increasing order, in buf (len
// n, every row) or in the sampler's scratch.
func (x *Regressor) sampleRows(rng *randx.RNG, s *randx.Sampler, buf []int) []int {
	if x.cfg.Subsample >= 1 {
		for i := range buf {
			buf[i] = i
		}
		return buf
	}
	return s.SampleWithoutReplacement(rng, len(buf), sampleSize(x.cfg.Subsample, len(buf)))
}

// sampleCols returns the round's columns in increasing order: all of
// them (the shared, read-only identity) or a draw in the sampler's
// scratch.
func (x *Regressor) sampleCols(rng *randx.RNG, s *randx.Sampler, all []int) []int {
	if x.cfg.ColSample >= 1 {
		return all
	}
	return s.SampleWithoutReplacement(rng, len(all), sampleSize(x.cfg.ColSample, len(all)))
}

// grower is one output worker's tree-growing state: this output's
// gradient statistics and the round's rows and columns, laid out in the
// worker's segment scratch. A node owns the range [lo, hi) of rows and
// of every segment column.
type grower struct {
	cfg        *Config
	fe         *flatEnsemble // the table the round's tree grows into
	seg        *ml.Segments
	cols       []int // the tree's columns; segment column c is feature cols[c]
	rows       []int // the tree's rows; a node's rows are rows[lo:hi], in index order
	grad, hess []float64
}

// buildTree appends one regularized tree, grown on the gradient
// statistics of the node holding rows[lo:hi], to the table in preorder.
func (g *grower) buildTree(lo, hi, depth int) {
	cfg := g.cfg
	var gSum, hSum float64
	for _, i := range g.rows[lo:hi] {
		gSum += g.grad[i]
		hSum += g.hess[i]
	}
	leaf := func() { g.fe.add(flatLeaf, -gSum/(hSum+cfg.Lambda)) }
	if depth >= cfg.MaxDepth || hi-lo < 2 {
		leaf()
		return
	}
	c, thr := g.bestSplit(lo, hi, gSum, hSum)
	if c < 0 {
		leaf()
		return
	}
	mid := g.seg.MarkLeft(c, lo, hi, thr)
	if mid == lo || mid == hi {
		leaf()
		return
	}
	g.seg.PartitionRows(g.rows[lo:hi])
	// Leaves never search, so the columns are split only for children
	// that will.
	if depth+1 < cfg.MaxDepth {
		g.seg.Partition(lo, hi)
	}
	i := g.fe.add(int32(g.cols[c]), thr)
	g.buildTree(lo, mid, depth+1)
	g.fe.right[i] = int32(len(g.fe.feature))
	g.buildTree(mid, hi, depth+1)
}

// bestSplit returns the segment column and threshold of the
// highest-gain split of the node [lo, hi), or column -1 when no split
// gains. Each column's segment is in (value, row index) order, so the
// gradient prefix sums add in the order a per-node sort would give; a
// cut is tried between each pair of adjacent distinct values.
func (g *grower) bestSplit(lo, hi int, gSum, hSum float64) (int, float64) {
	cfg := g.cfg
	parentScore := gSum * gSum / (hSum + cfg.Lambda)
	bestGain := 0.0
	bestCol, bestThr := -1, 0.0
	for c, rows := range g.seg.Rows {
		rows = rows[lo:hi]
		vals := g.seg.Vals[c][lo:hi]
		var gl, hl float64
		for k, i := range rows {
			// Equal values cannot be split between.
			//lint:allow floatcheck exact equality is the tie test of the presorted order; tied rows share one side of every cut
			if k > 0 && vals[k-1] != vals[k] {
				gr := gSum - gl
				hr := hSum - hl
				if hl >= cfg.MinChildWeight && hr >= cfg.MinChildWeight {
					gain := 0.5*(gl*gl/(hl+cfg.Lambda)+gr*gr/(hr+cfg.Lambda)-parentScore) - cfg.Gamma
					if gain > bestGain {
						bestGain = gain
						bestCol = c
						bestThr = (vals[k-1] + vals[k]) / 2
					}
				}
			}
			gl += g.grad[i]
			hl += g.hess[i]
		}
	}
	return bestCol, bestThr
}

// Predict implements ml.Regressor via the flattened kernel.
func (x *Regressor) Predict(in []float64) []float64 {
	out := make([]float64, len(x.flat))
	x.PredictInto(in, out)
	return out
}

// PredictInto writes the prediction for in into out (len NumOutputs)
// without allocating. Leaf weights accumulate in boosting order, each
// times the learning rate, as Fit accumulated its training
// predictions; a NaN feature follows the right branch.
func (x *Regressor) PredictInto(in, out []float64) {
	if x.flat == nil {
		panic("xgb: Predict before Fit")
	}
	eta := x.cfg.LearningRate
	for j := range x.flat {
		fe := &x.flat[j]
		p := x.baseScore[j]
		for _, root := range fe.roots {
			p += eta * fe.leafWeight(root, in)
		}
		out[j] = p
	}
}

// NumOutputs implements ml.BatchIntoPredictor.
func (x *Regressor) NumOutputs() int { return len(x.flat) }

// NumFeatures returns the narrowest input Predict accepts: one past the
// highest feature any split tests. The wire format does not carry the
// fitted width, so this is what a decoded booster can know.
func (x *Regressor) NumFeatures() int {
	n := 0
	for _, fe := range x.flat {
		for _, f := range fe.feature {
			n = max(n, int(f)+1)
		}
	}
	return n
}

// PredictBatchInto implements ml.BatchIntoPredictor: rows fan out
// across the shared worker pool (bounded by GOMAXPROCS) and each is
// filled in place by the allocation-free kernel. Row results are
// independent, so the output is bit-identical at any worker count.
func (x *Regressor) PredictBatchInto(ctx context.Context, X, out [][]float64) {
	if x.flat == nil {
		panic("xgb: Predict before Fit")
	}
	_ = parallel.ForEach(ctx, len(X), 0, func(_ context.Context, i int) error {
		x.PredictInto(X[i], out[i])
		return nil
	})
}
