package tree

import (
	"fmt"

	"repro/internal/ml"
)

// AppendWire serializes the fitted tree: growth configuration,
// bookkeeping, feature importances, and the node table in preorder,
// each row a tag byte (0 internal, 1 leaf) and its fields. The
// feature-subsampling RNG is deliberately not serialized — a decoded
// tree predicts bit-identically but cannot be refitted with
// MaxFeatures in effect.
func (t *Tree) AppendWire(e *ml.WireEnc) error {
	if t.flat == nil {
		return fmt.Errorf("tree: encode before Fit")
	}
	e.Int(t.cfg.MaxDepth)
	e.Int(t.cfg.MinSamplesLeaf)
	e.Int(t.cfg.MinSamplesSplit)
	e.Int(t.cfg.MaxFeatures)
	e.Int(t.depth)
	e.Int(t.leaves)
	e.Floats(t.importance)
	f := t.flat
	for i, feat := range f.feature {
		if feat == flatLeaf {
			e.U8(1)
			e.Floats(f.leafValues(i))
			continue
		}
		e.U8(0)
		e.Int(int(feat))
		e.F64(f.threshold[i])
	}
	return nil
}

// DecodeWire reconstructs a fitted tree written by AppendWire. It
// rejects a table the kernel could not walk: a split on a negative
// feature or on one beyond the importance vector, or leaves of unequal
// width.
func DecodeWire(d *ml.WireDec) (*Tree, error) {
	t := &Tree{}
	t.cfg.MaxDepth = d.Int()
	t.cfg.MinSamplesLeaf = d.Int()
	t.cfg.MinSamplesSplit = d.Int()
	t.cfg.MaxFeatures = d.Int()
	t.depth = d.Int()
	t.leaves = d.Int()
	t.importance = d.Floats()
	f := &flatTree{}
	// open holds the internal rows whose right child is still to come:
	// each leaf ends a left subtree, and the next row is the right child
	// of the innermost open row. The tree ends at a leaf with none open.
	var open []int32
	for d.Err() == nil {
		switch tag := d.U8(); tag {
		case 0:
			feat := d.Int()
			if feat < 0 || feat >= len(t.importance) {
				d.Failf("node %d splits on feature %d of %d", len(f.feature), feat, len(t.importance))
			}
			open = append(open, f.split(int32(feat), d.F64()))
			continue
		case 1:
			n := d.Len(8)
			if f.nOut == 0 {
				f.nOut = n
			}
			if n == 0 || n != f.nOut {
				d.Failf("leaf %d has %d outputs, want %d", len(f.feature), n, f.nOut)
				break
			}
			vals := f.addLeaf()
			for k := range vals {
				vals[k] = d.F64()
			}
		default:
			d.Failf("bad node tag %d", tag)
		}
		if len(open) == 0 {
			break
		}
		last := len(open) - 1
		f.right[open[last]] = int32(len(f.feature))
		open = open[:last]
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("tree: decode: %w", err)
	}
	f.trim()
	t.flat = f
	return t, nil
}
