package forest

import (
	"context"
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/randx"
)

// refNode is one node of a pointer tree the reference walker descends.
// The forest's trees are rebuilt from its wire bytes, so the oracle
// shares nothing with the flat tables or their kernel but the format.
type refNode struct {
	feature     int
	threshold   float64
	left, right *refNode
	value       []float64 // leaf payload (nil for internal nodes)
}

// referenceForest rebuilds f's trees as pointer trees from its
// AppendWire bytes.
func referenceForest(t *testing.T, f *Regressor) []*refNode {
	t.Helper()
	var e ml.WireEnc
	if err := f.AppendWire(&e); err != nil {
		t.Fatal(err)
	}
	d := ml.NewWireDec(e.Bytes())
	for range 4 { // NumTrees, MaxDepth, MinSamplesLeaf, MaxFeatures
		d.Int()
	}
	d.U64() // Seed
	d.Int() // nOut
	trees := make([]*refNode, d.Int())
	for i := range trees {
		for range 6 { // the tree's configuration, depth, leaves
			d.Int()
		}
		d.Floats() // importance
		trees[i] = readRefNode(d)
	}
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("reference decode: %v, %d bytes left", err, d.Remaining())
	}
	return trees
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

// referencePredict averages the trees' leaves in ensemble order,
// routing a NaN feature right at every split with an explicit
// math.IsNaN test (the flat kernel gets the same routing from `NaN <=
// t` being false).
func referencePredict(trees []*refNode, x []float64) []float64 {
	var out []float64
	for _, n := range trees {
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
		if out == nil {
			out = make([]float64, len(n.value))
		}
		for j, v := range n.value {
			out[j] += v
		}
	}
	inv := 1 / float64(len(trees))
	for j := range out {
		out[j] *= inv
	}
	return out
}

// TestForestFlatMatchesReferenceWithNaNs compares the flat kernel, row
// and batch, with the pointer trees rebuilt from the wire bytes, bit
// for bit, on probes with NaN features at interior splits.
func TestForestFlatMatchesReferenceWithNaNs(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		f := New(Config{NumTrees: 20, Seed: seed})
		if err := f.Fit(synth(seed, 300)); err != nil {
			t.Fatal(err)
		}
		ref := referenceForest(t, f)
		rng := randx.New(seed ^ 0x5EED)
		probe := make([][]float64, 60)
		for i := range probe {
			probe[i] = []float64{rng.Uniform(-2.5, 2.5), rng.Uniform(-2.5, 2.5), rng.Uniform(-2.5, 2.5)}
			if i%2 == 0 {
				probe[i][(i/2)%3] = math.NaN()
			}
		}
		batch := ml.PredictBatch(context.Background(), f, probe)
		for i, x := range probe {
			want := referencePredict(ref, x)
			row := f.Predict(x)
			for j := range want {
				if math.Float64bits(row[j]) != math.Float64bits(want[j]) || math.Float64bits(batch[i][j]) != math.Float64bits(want[j]) {
					t.Fatalf("seed %d probe %d out %d: row %v, batch %v, reference %v", seed, i, j, row[j], batch[i][j], want[j])
				}
			}
		}
	}
}
