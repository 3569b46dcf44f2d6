package modelstore

import (
	"math"
	"sort"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/knn"
	"repro/internal/randx"
)

// refNode is one node of a pointer tree rebuilt from a stored file's
// payload bytes, so the oracle shares nothing with the decoded model's
// flat tables or their kernel but the format. Forest leaves carry a
// vector, boosting leaves a scalar weight.
type refNode struct {
	feature     int
	threshold   float64
	left, right *refNode
	leaf        bool
	value       []float64 // forest leaf payload
	weight      float64   // boosting leaf weight
}

// readRefNode reads one preorder subtree; vectorLeaves selects the
// forest leaf encoding over the boosting one.
func readRefNode(d *ml.WireDec, vectorLeaves bool) *refNode {
	if d.U8() == 1 {
		if vectorLeaves {
			return &refNode{leaf: true, value: d.Floats()}
		}
		return &refNode{leaf: true, weight: d.F64()}
	}
	if d.Err() != nil {
		return &refNode{leaf: true}
	}
	n := &refNode{feature: d.Int(), threshold: d.F64()}
	n.left = readRefNode(d, vectorLeaves)
	n.right = readRefNode(d, vectorLeaves)
	return n
}

// leafFor walks to x's leaf, routing a NaN feature right at every split
// with an explicit math.IsNaN test (the flat kernels get the same
// routing from `NaN <= t` being false).
func (n *refNode) leafFor(x []float64) *refNode {
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
	return n
}

// knnDistance is the kNN metric computed one candidate row at a time;
// for Cosine it returns 1 − cos(a, b), and 1 when a norm vanishes.
func knnDistance(metric knn.Metric, a, b []float64) float64 {
	var s float64
	switch metric {
	case knn.Cosine:
		var dot, na, nb float64
		for i := range a {
			dot += a[i] * b[i]
			na += a[i] * a[i]
			nb += b[i] * b[i]
		}
		if na == 0 || nb == 0 {
			return 1
		}
		return 1 - dot/math.Sqrt(na*nb)
	case knn.Manhattan:
		for i := range a {
			s += math.Abs(a[i] - b[i])
		}
		return s
	default: // Euclidean
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return math.Sqrt(s)
	}
}

// referenceFromFile rebuilds the model stored in data from its payload
// bytes and returns its row predictor: the tree ensembles as pointer
// trees, kNN as a row-at-a-time scan with a full sort.
func referenceFromFile(t *testing.T, kind Kind, data []byte) func(x []float64) []float64 {
	t.Helper()
	d := ml.NewWireDec(data[headerSize : len(data)-trailerSize])
	var predict func(x []float64) []float64
	switch kind {
	case KindForest:
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
			trees[i] = readRefNode(d, true)
		}
		predict = func(x []float64) []float64 {
			var out []float64
			for _, root := range trees {
				v := root.leafFor(x).value
				if out == nil {
					out = make([]float64, len(v))
				}
				for j := range v {
					out[j] += v[j]
				}
			}
			inv := 1 / float64(len(trees))
			for j := range out {
				out[j] *= inv
			}
			return out
		}
	case KindXGB:
		d.Int() // NumRounds
		eta := d.F64()
		d.Int()       // MaxDepth
		for range 5 { // Lambda, Gamma, MinChildWeight, Subsample, ColSample
			d.F64()
		}
		d.U64() // Seed
		base := d.Floats()
		ensembles := make([][]*refNode, d.Int())
		for j := range ensembles {
			ensembles[j] = make([]*refNode, d.Int())
			for k := range ensembles[j] {
				ensembles[j][k] = readRefNode(d, false)
			}
		}
		predict = func(x []float64) []float64 {
			out := make([]float64, len(ensembles))
			for j, trees := range ensembles {
				p := base[j]
				for _, root := range trees {
					p += eta * root.leafFor(x).weight
				}
				out[j] = p
			}
			return out
		}
	case KindKNN:
		k := d.Int()
		metric := knn.Metric(d.U8())
		weighting := knn.Weighting(d.U8())
		d.Bool() // Standardize; a stored scaler implies it
		var scaler *ml.StandardScaler
		if d.Bool() {
			var err error
			if scaler, err = ml.DecodeScaler(d); err != nil {
				t.Fatalf("%v: reference decode: %v", kind, err)
			}
		}
		xs, ys := d.FloatRows(), d.FloatRows()
		predict = func(x []float64) []float64 {
			if scaler != nil {
				x = scaler.Transform(x)
			}
			type cand struct {
				dist float64
				idx  int
			}
			cs := make([]cand, len(xs))
			for i, row := range xs {
				cs[i] = cand{knnDistance(metric, x, row), i}
			}
			sort.Slice(cs, func(i, j int) bool {
				if cs[i].dist != cs[j].dist {
					return cs[i].dist < cs[j].dist
				}
				return cs[i].idx < cs[j].idx
			})
			out := make([]float64, len(ys[0]))
			var wsum float64
			for _, c := range cs[:min(k, len(cs))] {
				w := 1.0
				if weighting == knn.Distance {
					w = 1 / (c.dist + 1e-12)
				}
				wsum += w
				for j, v := range ys[c.idx] {
					out[j] += w * v
				}
			}
			for j := range out {
				out[j] /= wsum
			}
			return out
		}
	default:
		t.Fatalf("reference decode: unknown kind %v", kind)
	}
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("%v: reference decode: %v, %d bytes left", kind, err, d.Remaining())
	}
	return predict
}

// TestLoadedFlatMatchesPointerReference pins the warm-load contract for
// the flattened kernels: a model decoded from the store serves with its
// struct-of-arrays kernel, and that kernel must agree bit for bit with
// a reference rebuilt from the stored bytes — pointer trees for the
// tree families, a row-at-a-time full-sort scan for kNN — per family,
// per seed.
func TestLoadedFlatMatchesPointerReference(t *testing.T) {
	for _, kind := range allKinds {
		for _, seed := range []uint64{1, 2, 3} {
			d := testDataset(seed)
			reg := fitKind(t, kind, d, seed)
			data, err := Encode(reg, FingerprintDataset(d))
			if err != nil {
				t.Fatalf("%v seed %d: encode: %v", kind, seed, err)
			}
			loaded, _, err := Decode(data)
			if err != nil {
				t.Fatalf("%v seed %d: decode: %v", kind, seed, err)
			}
			ref := referenceFromFile(t, kind, data)
			probe := randx.New(seed ^ 0xF1A7)
			for q := 0; q < 25; q++ {
				x := make([]float64, len(d.X[0]))
				for j := range x {
					x[j] = probe.Uniform(-2.5, 2.5)
				}
				want := ref(x)
				got := loaded.Predict(x)
				if len(got) != len(want) {
					t.Fatalf("%v seed %d: output arity %d vs %d", kind, seed, len(got), len(want))
				}
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("%v seed %d probe %d out %d: warm flat %v != pointer reference %v",
							kind, seed, q, j, got[j], want[j])
					}
				}
			}
		}
	}
}
