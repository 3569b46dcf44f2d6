package tree

import (
	"math"
	"testing"

	"repro/internal/ml"
)

// refNode is one node of the pointer tree the reference walker
// descends. It is rebuilt from a tree's wire bytes, so the oracle
// shares nothing with the flat table or its kernel but the format.
type refNode struct {
	feature     int
	threshold   float64
	left, right *refNode
	value       []float64 // leaf payload (nil for internal nodes)
}

// referenceTree rebuilds tr as a pointer tree from its AppendWire
// bytes.
func referenceTree(t *testing.T, tr *Tree) *refNode {
	t.Helper()
	var e ml.WireEnc
	if err := tr.AppendWire(&e); err != nil {
		t.Fatal(err)
	}
	d := ml.NewWireDec(e.Bytes())
	for range 6 { // configuration, depth, leaves
		d.Int()
	}
	d.Floats() // importance
	root := readRefNode(d)
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("reference decode: %v, %d bytes left", err, d.Remaining())
	}
	return root
}

func readRefNode(d *ml.WireDec) *refNode {
	if d.U8() == 1 {
		return &refNode{value: d.Floats()}
	}
	if d.Err() != nil {
		return nil
	}
	n := &refNode{feature: d.Int(), threshold: d.F64()}
	n.left = readRefNode(d)
	n.right = readRefNode(d)
	return n
}

// predict walks to x's leaf. NaN routing contract: a NaN feature value
// always follows the right (greater-than) branch. The flat kernel
// realizes it through IEEE comparison semantics (`NaN <= t` is false);
// here it is spelled out with math.IsNaN.
func (n *refNode) predict(x []float64) []float64 {
	for n.value == nil {
		xv := x[n.feature]
		switch {
		case math.IsNaN(xv):
			n = n.right
		case xv <= n.threshold:
			n = n.left
		default:
			n = n.right
		}
	}
	return n.value
}
