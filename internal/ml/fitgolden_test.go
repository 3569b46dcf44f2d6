package ml_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/ml/tree"
	"repro/internal/ml/xgb"
	"repro/internal/randx"
)

// tieHeavyUC1 builds a UC1-shaped dataset (59 rows, 272 features, 50
// outputs, the Histogram decoder's bin count) whose features repeat
// values heavily, so split search must order tied rows and may never
// cut between them. Every feature takes one of a few levels, some of
// them a shared zero written as −0 in some rows and +0 in others; −0
// and +0 compare equal, so they are one tie group. A quarter of the
// features are continuous, and one column is constant.
func tieHeavyUC1() *ml.Dataset {
	rng := randx.New(19)
	n, p, q := 59, 272, 50
	negZero := math.Copysign(0, -1)
	d := &ml.Dataset{X: make([][]float64, n), Y: make([][]float64, n)}
	for i := range d.X {
		d.X[i] = make([]float64, p)
	}
	for j := 0; j < p; j++ {
		levels := 2 + j%5 // 2..6 distinct values
		for i := 0; i < n; i++ {
			var v float64
			switch {
			case j == p-1:
				v = 1.5 // constant column: never splittable
			case j%4 == 3:
				v = rng.StdNormal()
			default:
				v = 0.25 * float64(rng.IntN(levels)-levels/2)
			}
			if v == 0 && i%2 == 1 {
				v = negZero
			}
			d.X[i][j] = v
		}
	}
	// Row 0 and row 1 hold the −0/+0 pair in feature 0 regardless of
	// the draws above.
	d.X[0][0], d.X[1][0] = 0, negZero
	for i := 0; i < n; i++ {
		d.Y[i] = make([]float64, q)
		for o := range d.Y[i] {
			x := d.X[i]
			d.Y[i][o] = x[o%p] + 0.5*x[(3*o+1)%p]*x[(7*o+2)%p] + 0.05*rng.StdNormal()
		}
	}
	return d
}

// fitWireGolden is the SHA-256 of each fit's AppendWire bytes on
// tieHeavyUC1. The fitted models are a function of the data, the
// config and the seed alone; any change to split search, tie
// ordering, summation order or random draw order moves a hash. Update
// an entry only for a model change that is meant.
var fitWireGolden = map[string]string{
	"xgb-core":         "d0738ab1768e705d96badef986e7eb19227942966fa384f765618c1d3dfabcf5",
	"forest-100":       "25bf58ab7c83ca3fd11b45af5e84003c236b4f64d3004b9d80e93ffdabb3ceac",
	"forest-depth4-l2": "9caa8c24acfc86ebd50ba650dfe37a1763588ee003a73203585fe28814d355a3",
	"xgb-depth6-full":  "3ae388aeb928d0f248196ae11abd1059526181c7ab2020cfc6e3f579cdd066cd",
	"tree-all-l3":      "248a6aa58fe88010bd6e2ecb0f825911714a0ee8d03ac84b96bbaaec5bff9ff3",
}

type wireModel interface {
	ml.Regressor
	AppendWire(*ml.WireEnc) error
}

// TestFitWireGolden pins the bytes of five fits: XGBoost with the
// configuration internal/core uses, a default 100-tree forest, a
// depth-limited forest with two-row leaves, a deep XGBoost fit with no
// row or column sampling (splits down to depth 5, every row and column
// in every tree), and one CART tree over all features with three-row
// leaves (no bootstrap, no feature draws, the leaf-size checks).
func TestFitWireGolden(t *testing.T) {
	d := tieHeavyUC1()
	models := map[string]wireModel{
		"xgb-core": xgb.New(xgb.Config{
			NumRounds:    60,
			MaxDepth:     3,
			LearningRate: 0.12,
			Subsample:    0.9,
			ColSample:    0.8,
			Seed:         7,
		}),
		"forest-100":       forest.New(forest.Config{NumTrees: 100, Seed: 7}),
		"forest-depth4-l2": forest.New(forest.Config{NumTrees: 30, MaxDepth: 4, MinSamplesLeaf: 2, Seed: 11}),
		"xgb-depth6-full": xgb.New(xgb.Config{
			NumRounds:    12,
			MaxDepth:     6,
			LearningRate: 0.3,
			Subsample:    1,
			ColSample:    1,
			Seed:         5,
		}),
		"tree-all-l3": tree.New(tree.Config{MinSamplesLeaf: 3}),
	}
	for name, m := range models {
		if err := m.Fit(d); err != nil {
			t.Fatalf("%s: Fit: %v", name, err)
		}
		var e ml.WireEnc
		if err := m.AppendWire(&e); err != nil {
			t.Fatalf("%s: AppendWire: %v", name, err)
		}
		sum := sha256.Sum256(e.Bytes())
		if got, want := hex.EncodeToString(sum[:]), fitWireGolden[name]; got != want {
			t.Errorf("%s: wire SHA-256 %s, want %s", name, got, want)
		}
	}
}
