package forest

import (
	"fmt"

	"repro/internal/ml"
	"repro/internal/ml/tree"
)

// AppendWire serializes the fitted forest: the (defaulted)
// configuration, output arity, and every tree in ensemble order. The
// prediction is the tree average accumulated in that order, so a
// decoded forest predicts bit-identically to the original.
func (f *Regressor) AppendWire(e *ml.WireEnc) error {
	if len(f.trees) == 0 {
		return fmt.Errorf("forest: encode before Fit")
	}
	e.Int(f.cfg.NumTrees)
	e.Int(f.cfg.MaxDepth)
	e.Int(f.cfg.MinSamplesLeaf)
	e.Int(f.cfg.MaxFeatures)
	e.U64(f.cfg.Seed)
	e.Int(f.nOut)
	e.Int(len(f.trees))
	for t, tr := range f.trees {
		if err := tr.AppendWire(e); err != nil {
			return fmt.Errorf("forest: tree %d: %w", t, err)
		}
	}
	return nil
}

// DecodeWire reconstructs a fitted forest written by AppendWire. Every
// tree must have the forest's output width and the first tree's input
// width.
func DecodeWire(d *ml.WireDec) (*Regressor, error) {
	f := &Regressor{}
	f.cfg.NumTrees = d.Int()
	f.cfg.MaxDepth = d.Int()
	f.cfg.MinSamplesLeaf = d.Int()
	f.cfg.MaxFeatures = d.Int()
	f.cfg.Seed = d.U64()
	f.nOut = d.Int()
	// Every encoded tree occupies at least one tag byte, so the count
	// check in Len keeps corrupt buffers from allocating wildly.
	n := d.Len(1)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("forest: decode: %w", err)
	}
	if n == 0 || f.nOut <= 0 {
		return nil, fmt.Errorf("%w: forest with %d trees, %d outputs", ml.ErrWire, n, f.nOut)
	}
	f.trees = make([]*tree.Tree, n)
	for t := range f.trees {
		tr, err := tree.DecodeWire(d)
		if err != nil {
			return nil, fmt.Errorf("forest: tree %d: %w", t, err)
		}
		f.trees[t] = tr
		if tr.NumOutputs() != f.nOut {
			return nil, fmt.Errorf("%w: forest tree %d has %d outputs, want %d", ml.ErrWire, t, tr.NumOutputs(), f.nOut)
		}
		if w := f.trees[0].NumFeatures(); tr.NumFeatures() != w {
			return nil, fmt.Errorf("%w: forest tree %d has %d features, tree 0 has %d", ml.ErrWire, t, tr.NumFeatures(), w)
		}
	}
	return f, nil
}
