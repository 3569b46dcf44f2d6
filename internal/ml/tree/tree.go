// Package tree implements a multi-output CART regression tree with the
// variance-reduction (sum of per-output squared error) split criterion
// used by scikit-learn's DecisionTreeRegressor. It is the base learner
// for the random forest and (in single-output form) for the gradient
// boosting model.
package tree

import (
	"fmt"
	"slices"

	"repro/internal/ml"
	"repro/internal/numeric"
	"repro/internal/randx"
)

// Config controls tree growth.
type Config struct {
	// MaxDepth bounds tree depth; <= 0 means unlimited.
	MaxDepth int
	// MinSamplesLeaf is the minimum number of examples in a leaf
	// (default 1).
	MinSamplesLeaf int
	// MinSamplesSplit is the minimum number of examples required to
	// consider splitting a node (default 2).
	MinSamplesSplit int
	// MaxFeatures is the number of features sampled (without
	// replacement) at each split; <= 0 means all features. Random
	// forests use this for decorrelation.
	MaxFeatures int
	// Rand supplies feature-subsampling randomness; required when
	// MaxFeatures is in effect, ignored otherwise.
	Rand *randx.RNG
}

func (c Config) withDefaults() Config {
	if c.MinSamplesLeaf < 1 {
		c.MinSamplesLeaf = 1
	}
	if c.MinSamplesSplit < 2 {
		c.MinSamplesSplit = 2
	}
	return c
}

// flatTree is the fitted tree: a struct-of-arrays node table with one
// preorder-indexed row per node and the leaf payloads packed into a
// single contiguous block. Fit grows it and DecodeWire reads it
// straight into this form, and the serving kernel walks it iteratively
// with no pointer chasing and no allocation. Preorder keeps the hot
// left spine cache-adjacent: an internal row's left child is the next
// row.
//
// Encoding: feature[i] >= 0 marks an internal node whose children are
// left[i]/right[i]; feature[i] == flatLeaf marks a leaf whose payload
// is values[left[i] : left[i]+nOut].
type flatTree struct {
	feature   []int32
	threshold []float64
	left      []int32
	right     []int32
	values    []float64
	nOut      int
}

// flatLeaf is the feature sentinel marking a leaf row in the table.
const flatLeaf = int32(-1)

// split appends an internal row splitting on feature at threshold; its
// left child is the next row, and the caller sets right once the left
// subtree is in the table.
func (f *flatTree) split(feature int32, threshold float64) int32 {
	i := int32(len(f.feature))
	f.feature = append(f.feature, feature)
	f.threshold = append(f.threshold, threshold)
	f.left = append(f.left, i+1)
	f.right = append(f.right, 0)
	return i
}

// addLeaf appends a leaf row and returns its payload, nOut zeros for
// the caller to fill.
func (f *flatTree) addLeaf() []float64 {
	i := f.split(flatLeaf, 0)
	off := len(f.values)
	f.left[i] = int32(off)
	f.values = append(f.values, make([]float64, f.nOut)...)
	return f.values[off:]
}

// trim copies each column to its length, so a finished table does not
// keep append's growth slack for the model's lifetime.
func (f *flatTree) trim() {
	f.feature = slices.Clone(f.feature)
	f.threshold = slices.Clone(f.threshold)
	f.left = slices.Clone(f.left)
	f.right = slices.Clone(f.right)
	f.values = slices.Clone(f.values)
}

// leafValues returns row i's payload (do not mutate).
func (f *flatTree) leafValues(i int) []float64 {
	off := int(f.left[i])
	return f.values[off : off+f.nOut]
}

// leaf routes x to its leaf and returns a view of the payload (do not
// mutate). The comparison `x <= threshold` is false for NaN, so a NaN
// feature follows the right branch: that is the tree's NaN-routing
// contract.
func (f *flatTree) leaf(x []float64) []float64 {
	ft, th, lt, rt := f.feature, f.threshold, f.left, f.right
	i := int32(0)
	for ft[i] >= 0 {
		if x[ft[i]] <= th[i] {
			i = lt[i]
		} else {
			i = rt[i]
		}
	}
	off := lt[i]
	return f.values[off : off+int32(f.nOut)]
}

// Tree is a fitted regression tree.
type Tree struct {
	cfg  Config
	flat *flatTree // nil until fitted or decoded
	// depth and leaves are bookkeeping for tests and reports.
	depth  int
	leaves int
	// importance accumulates the total impurity (SSE) reduction
	// attributed to each feature — the classic "gain" importance.
	importance []float64
}

// FeatureImportance returns the per-feature impurity-reduction shares of
// the fitted tree, normalized to sum to 1 (all zeros when the tree is a
// single leaf). The slice is a copy.
func (t *Tree) FeatureImportance() []float64 {
	out := make([]float64, len(t.importance))
	total := numeric.Sum(t.importance)
	if total <= 0 {
		return out
	}
	for i, v := range t.importance {
		out[i] = v / total
	}
	return out
}

// New returns an unfitted tree with the given configuration.
func New(cfg Config) *Tree { return &Tree{cfg: cfg.withDefaults()} }

// Name implements ml.Regressor.
func (t *Tree) Name() string { return "CART" }

// Depth returns the depth of the fitted tree (0 for a stump).
func (t *Tree) Depth() int { return t.depth }

// Leaves returns the number of leaves of the fitted tree.
func (t *Tree) Leaves() int { return t.leaves }

// NumFeatures returns the input width the tree was fitted at; every
// split tests a feature below it.
func (t *Tree) NumFeatures() int { return len(t.importance) }

// Fit grows the tree on d.
func (t *Tree) Fit(d *ml.Dataset) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("tree: %w", err)
	}
	idx := make([]int, d.NumExamples())
	for i := range idx {
		idx[i] = i
	}
	return t.fit(d, ml.NewSegments(ml.SortColumns(d.X), d.NumFeatures()), idx)
}

// FitIndices grows the tree on the subset of d given by idx, which may
// repeat rows (the forest's bootstrap samples, fitted without copying
// rows). seg is segment scratch over ml.SortColumns(d.X) that holds
// every feature; a forest sorts once and gives each worker its own
// scratch, reused for every tree the worker grows.
func (t *Tree) FitIndices(d *ml.Dataset, seg *ml.Segments, idx []int) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("tree: %w", err)
	}
	if len(idx) == 0 {
		return fmt.Errorf("tree: empty index set")
	}
	order := seg.Order
	if len(order.Rows) != d.NumFeatures() || len(order.Rows[0]) != d.NumExamples() || cap(seg.Rows) < d.NumFeatures() {
		return fmt.Errorf("tree: segment scratch does not match the %d×%d dataset", d.NumExamples(), d.NumFeatures())
	}
	return t.fit(d, seg, append([]int(nil), idx...))
}

// fit grows the tree on idx, which it reorders in place.
func (t *Tree) fit(d *ml.Dataset, seg *ml.Segments, idx []int) error {
	if t.cfg.MaxFeatures > 0 && t.cfg.Rand == nil {
		return fmt.Errorf("tree: MaxFeatures requires a Rand source")
	}
	nf := d.NumFeatures()
	g := &grower{
		t:           t,
		d:           d,
		flat:        &flatTree{nOut: d.NumOutputs()},
		seg:         seg,
		allFeatures: make([]int, nf),
		count:       make([]int32, d.NumExamples()),
		sumL:        make([]float64, d.NumOutputs()),
		sumAll:      make([]float64, d.NumOutputs()),
		mean:        make([]float64, d.NumOutputs()),
	}
	for f := range g.allFeatures {
		g.allFeatures[f] = f
	}
	// Every copy of a row follows the same branch, so a row's
	// multiplicity is the same in every node that holds it.
	for _, i := range idx {
		g.count[i]++
	}
	m := seg.Load(g.allFeatures, idx)
	t.depth = 0
	t.leaves = 0
	t.importance = make([]float64, nf)
	g.grow(idx, 0, m, 0)
	g.flat.trim()
	t.flat = g.flat
	return nil
}

// meanInto writes the mean target vector over idx into out.
func meanInto(out []float64, d *ml.Dataset, idx []int) {
	for j := range out {
		out[j] = 0
	}
	for _, i := range idx {
		for j, v := range d.Y[i] {
			out[j] += v
		}
	}
	inv := 1 / float64(len(idx))
	for j := range out {
		out[j] *= inv
	}
}

// sse computes the total squared error of idx around their mean,
// summed over outputs — the impurity whose reduction CART maximizes.
// mean is scratch of len NumOutputs.
func sse(d *ml.Dataset, idx []int, mean []float64) float64 {
	meanInto(mean, d, idx)
	var s float64
	for _, i := range idx {
		for j, v := range d.Y[i] {
			dv := v - mean[j]
			s += dv * dv
		}
	}
	return s
}

// grower is one fit's tree-growing state: the tree's rows laid out in
// segment scratch, each row's bootstrap multiplicity, and the split
// scan's scratch, sized once per tree so the scan allocates nothing per
// node. A node holds a sub-slice of the tree's row list (with repeats,
// in the order the node's sums add) and the same rows, each once, in
// segment range [lo, hi).
type grower struct {
	t           *Tree
	d           *ml.Dataset
	flat        *flatTree // the table the tree grows into, in preorder
	seg         *ml.Segments
	allFeatures []int // 0..p-1, the candidates when MaxFeatures is off
	sampler     randx.Sampler
	count       []int32   // count[i]: copies of row i in the tree
	sumL        []float64 // per-output target sum left of the cut
	sumAll      []float64 // per-output target sum of the node
	mean        []float64 // per-output target mean of the node
}

// grow appends the subtree of the node whose row list is idx and whose
// segment range is [lo, hi) to the table in preorder; idx is reordered
// in place.
func (g *grower) grow(idx []int, lo, hi, depth int) {
	t := g.t
	if depth > t.depth {
		t.depth = depth
	}
	if len(idx) < t.cfg.MinSamplesSplit || (t.cfg.MaxDepth > 0 && depth >= t.cfg.MaxDepth) {
		g.leaf(idx)
		return
	}
	feat, thr, gain, ok := g.bestSplit(idx, lo, hi)
	if !ok {
		g.leaf(idx)
		return
	}
	mid := g.seg.MarkLeft(feat, lo, hi, thr)
	nLeft := 0
	for _, i := range g.seg.Rows[feat][lo:mid] {
		nLeft += int(g.count[i])
	}
	if nLeft < t.cfg.MinSamplesLeaf || len(idx)-nLeft < t.cfg.MinSamplesLeaf {
		g.leaf(idx)
		return
	}
	g.seg.PartitionRows(idx)
	g.seg.Partition(lo, hi)
	t.importance[feat] += gain
	i := g.flat.split(int32(feat), thr)
	g.grow(idx[:nLeft], lo, mid, depth+1)
	g.flat.right[i] = int32(len(g.flat.feature))
	g.grow(idx[nLeft:], mid, hi, depth+1)
}

// leaf appends a leaf holding the mean target vector over idx.
func (g *grower) leaf(idx []int) {
	g.t.leaves++
	meanInto(g.flat.addLeaf(), g.d, idx)
}

// bestSplit scans (a subsample of) features for the split that maximally
// reduces total squared error, using the classic sorted-prefix-sum scan.
// Each feature's segment [lo, hi) holds the node's distinct rows in
// (value, row index) order; each row counts as many times as idx
// repeats it, so the prefix sums add in the order a sort of idx by the
// same key would give, and a cut is tried between each pair of adjacent
// distinct values.
func (g *grower) bestSplit(idx []int, lo, hi int) (feature int, threshold, gain float64, ok bool) {
	t, d := g.t, g.d
	nf := d.NumFeatures()
	features := g.allFeatures
	if t.cfg.MaxFeatures > 0 && t.cfg.MaxFeatures < nf {
		features = g.sampler.SampleWithoutReplacement(t.cfg.Rand, nf, t.cfg.MaxFeatures)
	}
	n := len(idx)
	minLeaf := t.cfg.MinSamplesLeaf

	parentSSE := sse(d, idx, g.mean)
	best := parentSSE - 1e-12 // require strictly positive gain
	found := false

	sumL, sumAll := g.sumL, g.sumAll[:len(g.sumL)]
	for j := range sumAll {
		sumAll[j] = 0
	}
	var sqAll float64
	for _, i := range idx {
		for j, v := range d.Y[i] {
			sumAll[j] += v
			sqAll += v * v
		}
	}

	for _, f := range features {
		for j := range sumL {
			sumL[j] = 0
		}
		vals := g.seg.Vals[f][lo:hi]
		nl := 0 // rows (with repeats) left of the cut
		for k, i := range g.seg.Rows[f][lo:hi] {
			// Equal values cannot be split between.
			//lint:allow floatcheck exact equality is the tie test of the presorted order; tied rows share one side of every cut
			if k > 0 && vals[k-1] != vals[k] && nl >= minLeaf && n-nl >= minLeaf {
				// SSE_left + SSE_right = Σy² − Σ_left²/n_l − Σ_right²/n_r,
				// accumulated across outputs.
				fl, fr := float64(nl), float64(n-nl)
				childSSE := sqAll
				for j, sl := range sumL {
					sr := sumAll[j] - sl
					childSSE -= sl*sl/fl + sr*sr/fr
				}
				if childSSE < best {
					best = childSSE
					feature = f
					threshold = (vals[k-1] + vals[k]) / 2
					found = true
				}
			}
			c := int(g.count[i])
			y := d.Y[i][:len(sumL)]
			for r := 0; r < c; r++ {
				for j, v := range y {
					sumL[j] += v
				}
			}
			nl += c
		}
	}
	if !found {
		return 0, 0, 0, false
	}
	return feature, threshold, parentSSE - best, true
}

// Predict implements ml.Regressor via the flattened kernel.
func (t *Tree) Predict(x []float64) []float64 {
	if t.flat == nil {
		panic("tree: Predict before Fit")
	}
	leaf := t.flat.leaf(x)
	out := make([]float64, len(leaf))
	copy(out, leaf)
	return out
}

// PredictInto writes the prediction for x into out (len NumOutputs)
// without allocating.
func (t *Tree) PredictInto(x, out []float64) {
	if t.flat == nil {
		panic("tree: Predict before Fit")
	}
	copy(out, t.flat.leaf(x))
}

// AddLeafInto adds the leaf payload for x into acc — the forest's
// accumulation hot path, one table walk and nOut additions, zero
// allocation.
func (t *Tree) AddLeafInto(x, acc []float64) {
	for j, v := range t.flat.leaf(x) {
		acc[j] += v
	}
}

// NumOutputs returns the fitted output arity.
func (t *Tree) NumOutputs() int {
	if t.flat == nil {
		panic("tree: NumOutputs before Fit")
	}
	return t.flat.nOut
}
