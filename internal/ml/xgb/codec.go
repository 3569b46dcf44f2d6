package xgb

import (
	"fmt"
	"math"

	"repro/internal/ml"
)

// AppendWire serializes the fitted booster: the (defaulted)
// configuration, per-output base scores, and every ensemble's trees in
// boosting order, each tree's rows in preorder as a tag byte (0
// internal, 1 leaf) and its fields. Prediction accumulates
// LearningRate-scaled leaf weights in that order, so a decoded booster
// predicts bit-identically to the original.
func (x *Regressor) AppendWire(e *ml.WireEnc) error {
	if x.flat == nil {
		return fmt.Errorf("xgb: encode before Fit")
	}
	e.Int(x.cfg.NumRounds)
	e.F64(x.cfg.LearningRate)
	e.Int(x.cfg.MaxDepth)
	e.F64(x.cfg.Lambda)
	e.F64(x.cfg.Gamma)
	e.F64(x.cfg.MinChildWeight)
	e.F64(x.cfg.Subsample)
	e.F64(x.cfg.ColSample)
	e.U64(x.cfg.Seed)
	e.Floats(x.baseScore)
	e.Int(len(x.flat))
	for _, fe := range x.flat {
		// The rounds' trees are consecutive in the table, so its rows in
		// order are the trees in boosting order.
		e.Int(len(fe.roots))
		for i, feat := range fe.feature {
			if feat == flatLeaf {
				e.U8(1)
				e.F64(fe.threshold[i])
				continue
			}
			e.U8(0)
			e.Int(int(feat))
			e.F64(fe.threshold[i])
		}
	}
	return nil
}

// DecodeWire reconstructs a fitted booster written by AppendWire. It
// rejects a split on a negative feature, which the kernel would read
// as a leaf.
func DecodeWire(d *ml.WireDec) (*Regressor, error) {
	x := &Regressor{}
	x.cfg.NumRounds = d.Int()
	x.cfg.LearningRate = d.F64()
	x.cfg.MaxDepth = d.Int()
	x.cfg.Lambda = d.F64()
	x.cfg.Gamma = d.F64()
	x.cfg.MinChildWeight = d.F64()
	x.cfg.Subsample = d.F64()
	x.cfg.ColSample = d.F64()
	x.cfg.Seed = d.U64()
	x.baseScore = d.Floats()
	nOut := d.Len(8)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("xgb: decode: %w", err)
	}
	if nOut == 0 || nOut != len(x.baseScore) {
		return nil, fmt.Errorf("%w: booster with %d ensembles, %d base scores", ml.ErrWire, nOut, len(x.baseScore))
	}
	x.flat = make([]flatEnsemble, nOut)
	for out := range x.flat {
		fe := &x.flat[out]
		fe.roots = make([]int32, d.Len(1))
		for r := range fe.roots {
			fe.roots[r] = int32(len(fe.feature))
			decodeTree(d, fe)
		}
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("xgb: decode ensemble %d: %w", out, err)
		}
		fe.trim()
	}
	return x, nil
}

// decodeTree appends one tree, read in preorder, to fe. open holds the
// internal rows whose right child is still to come: each leaf ends a
// left subtree, and the next row is the right child of the innermost
// open row. The tree ends at a leaf with none open.
func decodeTree(d *ml.WireDec, fe *flatEnsemble) {
	var open []int32
	for d.Err() == nil {
		switch tag := d.U8(); tag {
		case 0:
			feat := d.Int()
			if feat < 0 || feat > math.MaxInt32 {
				d.Failf("node %d splits on feature %d", len(fe.feature), feat)
			}
			open = append(open, fe.add(int32(feat), d.F64()))
			continue
		case 1:
			fe.add(flatLeaf, d.F64())
		default:
			d.Failf("bad boosting node tag %d", tag)
		}
		if len(open) == 0 {
			return
		}
		last := len(open) - 1
		fe.right[open[last]] = int32(len(fe.feature))
		open = open[:last]
	}
}
