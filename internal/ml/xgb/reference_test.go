package xgb

import (
	"context"
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/randx"
)

// refNode is one node of a boosting tree the reference walker
// descends. The ensembles are rebuilt from the booster's wire bytes, so
// the oracle shares nothing with the flat tables or their kernel but
// the format.
type refNode struct {
	feature     int
	threshold   float64
	left, right *refNode
	leaf        bool
	weight      float64
}

// refBooster is a booster rebuilt from its wire bytes.
type refBooster struct {
	eta       float64
	baseScore []float64
	ensembles [][]*refNode // [output][round]
}

func referenceBooster(t *testing.T, x *Regressor) *refBooster {
	t.Helper()
	var e ml.WireEnc
	if err := x.AppendWire(&e); err != nil {
		t.Fatal(err)
	}
	d := ml.NewWireDec(e.Bytes())
	d.Int() // NumRounds
	r := &refBooster{eta: d.F64()}
	d.Int()       // MaxDepth
	for range 5 { // Lambda, Gamma, MinChildWeight, Subsample, ColSample
		d.F64()
	}
	d.U64() // Seed
	r.baseScore = d.Floats()
	r.ensembles = make([][]*refNode, d.Int())
	for out := range r.ensembles {
		r.ensembles[out] = make([]*refNode, d.Int())
		for k := range r.ensembles[out] {
			r.ensembles[out][k] = readRefNode(d)
		}
	}
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("reference decode: %v, %d bytes left", err, d.Remaining())
	}
	return r
}

func readRefNode(d *ml.WireDec) *refNode {
	if d.U8() == 1 {
		return &refNode{leaf: true, weight: d.F64()}
	}
	if d.Err() != nil {
		return nil
	}
	n := &refNode{feature: d.Int(), threshold: d.F64()}
	n.left = readRefNode(d)
	n.right = readRefNode(d)
	return n
}

// predict adds each round's LearningRate-scaled leaf weight to the base
// score in boosting order, routing a NaN feature right at every split
// with an explicit math.IsNaN test (the flat kernel gets the same
// routing from `NaN <= t` being false).
func (r *refBooster) predict(x []float64) []float64 {
	out := make([]float64, len(r.ensembles))
	for j, trees := range r.ensembles {
		p := r.baseScore[j]
		for _, n := range trees {
			for !n.leaf {
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
			p += r.eta * n.weight
		}
		out[j] = p
	}
	return out
}

// TestXGBFlatMatchesReferenceWithNaNs compares the flat kernel, row and
// batch, with the ensembles rebuilt from the wire bytes, bit for bit,
// on probes with NaN features at interior splits.
func TestXGBFlatMatchesReferenceWithNaNs(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		m := New(Config{NumRounds: 40, MaxDepth: 4, Subsample: 0.8, ColSample: 0.5, Seed: seed})
		if err := m.Fit(synth(seed, 300)); err != nil {
			t.Fatal(err)
		}
		ref := referenceBooster(t, m)
		rng := randx.New(seed ^ 0x5EED)
		probe := make([][]float64, 60)
		for i := range probe {
			probe[i] = []float64{rng.Uniform(-2.5, 2.5), rng.Uniform(-2.5, 2.5)}
			if i%2 == 0 {
				probe[i][(i/2)%2] = math.NaN()
			}
		}
		batch := ml.PredictBatch(context.Background(), m, probe)
		for i, x := range probe {
			want := ref.predict(x)
			row := m.Predict(x)
			for j := range want {
				if math.Float64bits(row[j]) != math.Float64bits(want[j]) || math.Float64bits(batch[i][j]) != math.Float64bits(want[j]) {
					t.Fatalf("seed %d probe %d out %d: row %v, batch %v, reference %v", seed, i, j, row[j], batch[i][j], want[j])
				}
			}
		}
	}
}
