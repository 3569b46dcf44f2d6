package tree

import (
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/randx"
)

func TestTreePerfectSplit(t *testing.T) {
	d := &ml.Dataset{
		X: [][]float64{{0}, {1}, {10}, {11}},
		Y: [][]float64{{1}, {1}, {5}, {5}},
	}
	tr := New(Config{})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]float64{0.5}); got[0] != 1 {
		t.Errorf("Predict(0.5) = %v, want 1", got[0])
	}
	if got := tr.Predict([]float64{10.5}); got[0] != 5 {
		t.Errorf("Predict(10.5) = %v, want 5", got[0])
	}
}

func TestTreeConstantTargetIsLeaf(t *testing.T) {
	d := &ml.Dataset{
		X: [][]float64{{1}, {2}, {3}},
		Y: [][]float64{{7}, {7}, {7}},
	}
	tr := New(Config{})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	if tr.Leaves() != 1 {
		t.Errorf("constant target grew %d leaves, want 1 (no positive gain)", tr.Leaves())
	}
	if got := tr.Predict([]float64{99}); got[0] != 7 {
		t.Errorf("Predict = %v, want 7", got[0])
	}
}

func TestTreeMaxDepth(t *testing.T) {
	rng := randx.New(3)
	n := 200
	X := make([][]float64, n)
	Y := make([][]float64, n)
	for i := range X {
		x := rng.Uniform(0, 1)
		X[i] = []float64{x}
		Y[i] = []float64{math.Sin(10 * x)}
	}
	tr := New(Config{MaxDepth: 2})
	if err := tr.Fit(&ml.Dataset{X: X, Y: Y}); err != nil {
		t.Fatal(err)
	}
	if tr.Depth() > 2 {
		t.Errorf("Depth = %d, want <= 2", tr.Depth())
	}
	if tr.Leaves() > 4 {
		t.Errorf("Leaves = %d, want <= 4", tr.Leaves())
	}
}

func TestTreeMinSamplesLeaf(t *testing.T) {
	d := &ml.Dataset{
		X: [][]float64{{1}, {2}, {3}, {4}},
		Y: [][]float64{{1}, {2}, {3}, {4}},
	}
	tr := New(Config{MinSamplesLeaf: 2})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	// With min leaf 2, at most 2 leaves of 2 samples each.
	if tr.Leaves() > 2 {
		t.Errorf("Leaves = %d, want <= 2", tr.Leaves())
	}
}

func TestTreeMultiOutputSplitsOnJointVariance(t *testing.T) {
	// Output 0 is constant; output 1 depends on the feature. The tree
	// must still split (joint criterion) and predict both outputs.
	d := &ml.Dataset{
		X: [][]float64{{0}, {1}, {2}, {3}},
		Y: [][]float64{{5, 0}, {5, 0}, {5, 10}, {5, 10}},
	}
	tr := New(Config{})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	got := tr.Predict([]float64{3})
	if got[0] != 5 || got[1] != 10 {
		t.Errorf("Predict = %v, want [5 10]", got)
	}
}

func TestTreeInterpolatesStep(t *testing.T) {
	rng := randx.New(9)
	n := 500
	X := make([][]float64, n)
	Y := make([][]float64, n)
	for i := range X {
		x := rng.Uniform(0, 1)
		X[i] = []float64{x, rng.Uniform(0, 1)} // second feature is noise
		y := 0.0
		if x > 0.5 {
			y = 1
		}
		Y[i] = []float64{y}
	}
	tr := New(Config{MaxDepth: 4})
	if err := tr.Fit(&ml.Dataset{X: X, Y: Y}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]float64{0.25, 0.5}); math.Abs(got[0]) > 0.05 {
		t.Errorf("Predict left = %v, want ~0", got[0])
	}
	if got := tr.Predict([]float64{0.75, 0.5}); math.Abs(got[0]-1) > 0.05 {
		t.Errorf("Predict right = %v, want ~1", got[0])
	}
}

func TestTreeFitIndices(t *testing.T) {
	d := &ml.Dataset{
		X: [][]float64{{0}, {1}, {10}, {11}},
		Y: [][]float64{{1}, {1}, {5}, {5}},
	}
	tr := New(Config{})
	seg := ml.NewSegments(ml.SortColumns(d.X), 1)
	if err := tr.FitIndices(d, seg, []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	// Trained only on the high cluster.
	if got := tr.Predict([]float64{0}); got[0] != 5 {
		t.Errorf("Predict = %v, want 5", got[0])
	}
	if err := tr.FitIndices(d, seg, nil); err == nil {
		t.Error("empty indices should fail")
	}
	if err := tr.FitIndices(d, ml.NewSegments(ml.SortColumns(d.X[:3]), 1), []int{2, 3}); err == nil {
		t.Error("segments over another dataset should fail")
	}
	if err := tr.FitIndices(d, ml.NewSegments(ml.SortColumns(d.X), 0), []int{2, 3}); err == nil {
		t.Error("segments that cannot hold every feature should fail")
	}
}

func TestTreeMaxFeaturesRequiresRand(t *testing.T) {
	d := &ml.Dataset{X: [][]float64{{1, 2}}, Y: [][]float64{{1}}}
	tr := New(Config{MaxFeatures: 1})
	if err := tr.Fit(d); err == nil {
		t.Error("MaxFeatures without Rand should fail")
	}
}

func TestTreeMaxFeaturesSubsamples(t *testing.T) {
	// With MaxFeatures=1 and a fixed RNG, fitting still works and uses
	// one of the features.
	rng := randx.New(11)
	d := &ml.Dataset{
		X: [][]float64{{0, 5}, {1, 5}, {2, 6}, {3, 6}},
		Y: [][]float64{{0}, {0}, {1}, {1}},
	}
	tr := New(Config{MaxFeatures: 1, Rand: rng})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	_ = tr.Predict([]float64{0, 5})
}

func TestTreePredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{}).Predict([]float64{1})
}

func TestTreeDuplicateFeatureValues(t *testing.T) {
	// All X equal: no split possible, must yield a single mean leaf.
	d := &ml.Dataset{
		X: [][]float64{{1}, {1}, {1}},
		Y: [][]float64{{0}, {3}, {6}},
	}
	tr := New(Config{})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	if tr.Leaves() != 1 {
		t.Errorf("Leaves = %d, want 1", tr.Leaves())
	}
	if got := tr.Predict([]float64{1}); got[0] != 3 {
		t.Errorf("Predict = %v, want mean 3", got[0])
	}
}

func TestTreeFeatureImportance(t *testing.T) {
	// Feature 0 fully determines the target; feature 1 is noise.
	rng := randx.New(21)
	n := 300
	X := make([][]float64, n)
	Y := make([][]float64, n)
	for i := range X {
		a := rng.Uniform(0, 1)
		X[i] = []float64{a, rng.Uniform(0, 1)}
		y := 0.0
		if a > 0.5 {
			y = 1
		}
		Y[i] = []float64{y}
	}
	tr := New(Config{MaxDepth: 3})
	if err := tr.Fit(&ml.Dataset{X: X, Y: Y}); err != nil {
		t.Fatal(err)
	}
	imp := tr.FeatureImportance()
	if len(imp) != 2 {
		t.Fatalf("importance length = %d", len(imp))
	}
	if imp[0] < 0.9 {
		t.Errorf("informative feature importance = %v, want > 0.9", imp[0])
	}
	if math.Abs(imp[0]+imp[1]-1) > 1e-12 {
		t.Errorf("importance does not sum to 1: %v", imp)
	}
}

func TestTreeFeatureImportanceAllZeroForLeaf(t *testing.T) {
	d := &ml.Dataset{X: [][]float64{{1}, {1}}, Y: [][]float64{{2}, {2}}}
	tr := New(Config{})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	imp := tr.FeatureImportance()
	if imp[0] != 0 {
		t.Errorf("single-leaf importance = %v, want 0", imp)
	}
}

func TestTreeNaNRoutesRight(t *testing.T) {
	d := &ml.Dataset{
		X: [][]float64{{0}, {1}, {10}, {11}},
		Y: [][]float64{{1}, {1}, {5}, {5}},
	}
	tr := New(Config{})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	// NaN fails `x <= threshold`, so it must take the right (high) branch
	// in both the flattened kernel and the reference walker.
	q := []float64{math.NaN()}
	if got := tr.Predict(q); got[0] != 5 {
		t.Errorf("flattened kernel routed NaN to %v, want right branch (5)", got[0])
	}
	if got := referenceTree(t, tr).predict(q); got[0] != 5 {
		t.Errorf("reference walker routed NaN to %v, want right branch (5)", got[0])
	}
}

func TestTreeFlatMatchesReferenceWithNaNs(t *testing.T) {
	rng := randx.New(42)
	n, p := 120, 6
	d := &ml.Dataset{X: make([][]float64, n), Y: make([][]float64, n)}
	for i := range d.X {
		d.X[i] = make([]float64, p)
		for j := range d.X[i] {
			d.X[i][j] = rng.StdNormal()
		}
		d.Y[i] = []float64{d.X[i][0]*2 - d.X[i][3]}
	}
	tr := New(Config{MaxDepth: 6})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	ref := referenceTree(t, tr)
	for i := 0; i < 200; i++ {
		q := make([]float64, p)
		for j := range q {
			q[j] = rng.StdNormal()
		}
		// Sprinkle NaNs to exercise the routing contract at interior splits.
		if i%3 == 0 {
			q[i%p] = math.NaN()
		}
		got, want := tr.Predict(q), ref.predict(q)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("probe %d out %d: flattened %v != reference %v", i, j, got[j], want[j])
			}
		}
	}
}
