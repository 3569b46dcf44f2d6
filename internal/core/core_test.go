package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/distrep"
	"repro/internal/measure"
	"repro/internal/perfsim"
	"repro/internal/stats"
)

var (
	testDBOnce sync.Once
	testDB     *measure.Database
)

// testCampaign collects a reduced campaign (all 60 benchmarks, fewer
// runs) shared across tests.
func testCampaign(t *testing.T) *measure.Database {
	t.Helper()
	testDBOnce.Do(func() {
		db, err := measure.Collect(
			[]*perfsim.System{perfsim.NewIntelSystem(), perfsim.NewAMDSystem()},
			perfsim.TableI(),
			measure.Config{Runs: 300, ProbeRuns: 40, Seed: 20250704},
		)
		if err != nil {
			t.Fatalf("collect: %v", err)
		}
		testDB = db
	})
	if testDB == nil {
		t.Fatal("campaign unavailable")
	}
	return testDB
}

func TestModelAndConfigStrings(t *testing.T) {
	if KNN.String() != "kNN" || RandomForest.String() != "RF" || XGBoost.String() != "XGBoost" {
		t.Error("model names must match the paper")
	}
	if Model(9).String() == "" {
		t.Error("unknown model should render")
	}
	c1 := UC1Config{Rep: distrep.PearsonRnd, Model: KNN, NumSamples: 10}
	if c1.String() == "" {
		t.Error("UC1Config.String empty")
	}
	c2 := UC2Config{Rep: distrep.Histogram, Model: XGBoost}
	if c2.String() == "" {
		t.Error("UC2Config.String empty")
	}
	if len(Models()) != 3 {
		t.Error("Models() must list 3 models")
	}
}

func TestParseModel(t *testing.T) {
	cases := map[string]Model{
		"": KNN, "knn": KNN, "KNN": KNN,
		"rf": RandomForest, "randomforest": RandomForest, "forest": RandomForest,
		"xgboost": XGBoost, "xgb": XGBoost,
		"ridge": Ridge, "linear": Ridge,
	}
	for in, want := range cases {
		got, err := ParseModel(in)
		if err != nil || got != want {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	_, err := ParseModel("svm")
	if want := `unknown model "svm" (want knn, rf, xgboost, or ridge)`; err == nil || err.Error() != want {
		t.Errorf("ParseModel(svm) error = %v, want %q", err, want)
	}
}

func TestNewModelUnknown(t *testing.T) {
	if _, err := newModel(Model(42), 1, ModelOptions{}); err == nil {
		t.Error("unknown model should fail")
	}
}

func TestEvaluateUC1Shape(t *testing.T) {
	db := testCampaign(t)
	intel, _ := db.System("intel")
	scores, err := EvaluateUC1(intel, UC1Config{
		Rep: distrep.PearsonRnd, Model: KNN, NumSamples: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 60 {
		t.Fatalf("scores = %d, want 60", len(scores))
	}
	seen := map[string]bool{}
	for _, s := range scores {
		if s.KS < 0 || s.KS > 1 || math.IsNaN(s.KS) {
			t.Errorf("%s: KS = %v outside [0,1]", s.Benchmark, s.KS)
		}
		if s.W1 < 0 || math.IsNaN(s.W1) {
			t.Errorf("%s: W1 = %v", s.Benchmark, s.W1)
		}
		if s.ActualModes < 1 {
			t.Errorf("%s: actual modes = %d", s.Benchmark, s.ActualModes)
		}
		if seen[s.Benchmark] {
			t.Errorf("duplicate score for %s", s.Benchmark)
		}
		seen[s.Benchmark] = true
	}
}

func TestUC1PredictionCarriesSignal(t *testing.T) {
	// The learned predictor must beat the "no-learning" baseline of
	// predicting the global average target (kNN with k = all training
	// examples), showing that profiles genuinely carry distribution
	// information.
	db := testCampaign(t)
	intel, _ := db.System("intel")
	learned, err := EvaluateUC1(intel, UC1Config{
		Rep: distrep.PearsonRnd, Model: KNN, NumSamples: 10, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	global, err := EvaluateUC1(intel, UC1Config{
		Rep: distrep.PearsonRnd, Model: KNN, NumSamples: 10, Seed: 2,
		Models: ModelOptions{KNNK: 59},
	})
	if err != nil {
		t.Fatal(err)
	}
	ml, mg := stats.Mean(KSValues(learned)), stats.Mean(KSValues(global))
	if ml >= mg {
		t.Errorf("learned mean KS %v not better than global-average baseline %v", ml, mg)
	}
	if ml > 0.45 {
		t.Errorf("learned mean KS %v unreasonably high", ml)
	}
}

func TestUC1MoreSamplesHelp(t *testing.T) {
	// Figure 6's trend: accuracy improves with the number of runs.
	db := testCampaign(t)
	intel, _ := db.System("intel")
	mean := func(n int) float64 {
		scores, err := EvaluateUC1(intel, UC1Config{
			Rep: distrep.PearsonRnd, Model: KNN, NumSamples: n, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.Mean(KSValues(scores))
	}
	m1, m25 := mean(1), mean(25)
	if m25 >= m1 {
		t.Errorf("mean KS with 25 samples (%v) not below 1 sample (%v)", m25, m1)
	}
}

func TestEvaluateUC1Validation(t *testing.T) {
	db := testCampaign(t)
	intel, _ := db.System("intel")
	if _, err := EvaluateUC1(intel, UC1Config{Rep: distrep.PearsonRnd, Model: KNN, NumSamples: 0}); err == nil {
		t.Error("NumSamples=0 should fail")
	}
	if _, err := EvaluateUC1(intel, UC1Config{Rep: distrep.PearsonRnd, Model: KNN, NumSamples: 10000}); err == nil {
		t.Error("NumSamples beyond probe runs should fail")
	}
	if _, err := EvaluateUC1(intel, UC1Config{Rep: distrep.Kind(9), Model: KNN, NumSamples: 5}); err == nil {
		t.Error("unknown representation should fail")
	}
}

func TestEvaluateUC1Deterministic(t *testing.T) {
	db := testCampaign(t)
	intel, _ := db.System("intel")
	cfg := UC1Config{Rep: distrep.Histogram, Model: KNN, NumSamples: 5, Seed: 7}
	a, err := EvaluateUC1(intel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvaluateUC1(intel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].KS != b[i].KS {
			t.Fatalf("KS differs across identical runs: %v vs %v", a[i].KS, b[i].KS)
		}
	}
}

func TestPredictUC1(t *testing.T) {
	db := testCampaign(t)
	intel, _ := db.System("intel")
	pred, actual, err := PredictUC1(intel, "specomp/376", UC1Config{
		Rep: distrep.PearsonRnd, Model: KNN, NumSamples: 10, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pred) != len(actual) || len(actual) != 300 {
		t.Fatalf("lengths: pred=%d actual=%d", len(pred), len(actual))
	}
	if ks := stats.KSStatistic(pred, actual); ks >= 1 {
		t.Errorf("KS = %v", ks)
	}
	if _, _, err := PredictUC1(intel, "nope/none", UC1Config{
		Rep: distrep.PearsonRnd, Model: KNN, NumSamples: 10,
	}); err == nil {
		t.Error("unknown benchmark should fail")
	}
}

func TestAllRepsAndModelsRunUC1(t *testing.T) {
	db := testCampaign(t)
	intel, _ := db.System("intel")
	for _, rep := range distrep.Kinds() {
		for _, model := range Models() {
			cfg := UC1Config{
				Rep: rep, Model: model, NumSamples: 5, Seed: 5, Bins: 20,
				Models: ModelOptions{ForestTrees: 20, XGBRounds: 8},
			}
			scores, err := EvaluateUC1(intel, cfg)
			if err != nil {
				t.Fatalf("%v: %v", cfg, err)
			}
			m := stats.Mean(KSValues(scores))
			if m <= 0 || m >= 1 {
				t.Errorf("%v: mean KS = %v implausible", cfg, m)
			}
		}
	}
}

func TestEvaluateUC2BothDirections(t *testing.T) {
	db := testCampaign(t)
	intel, _ := db.System("intel")
	amd, _ := db.System("amd")
	cfg := UC2Config{Rep: distrep.PearsonRnd, Model: KNN, Seed: 6}
	a2i, err := EvaluateUC2(amd, intel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	i2a, err := EvaluateUC2(intel, amd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a2i) != 60 || len(i2a) != 60 {
		t.Fatalf("scores: %d and %d", len(a2i), len(i2a))
	}
	for _, s := range a2i {
		if s.KS < 0 || s.KS > 1 {
			t.Errorf("AMD→Intel %s: KS=%v", s.Benchmark, s.KS)
		}
	}
	m := stats.Mean(KSValues(a2i))
	if m > 0.45 {
		t.Errorf("AMD→Intel mean KS %v unreasonably high", m)
	}
}

func TestUC2CarriesSignal(t *testing.T) {
	db := testCampaign(t)
	intel, _ := db.System("intel")
	amd, _ := db.System("amd")
	learned, err := EvaluateUC2(amd, intel, UC2Config{Rep: distrep.PearsonRnd, Model: KNN, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	global, err := EvaluateUC2(amd, intel, UC2Config{
		Rep: distrep.PearsonRnd, Model: KNN, Seed: 8,
		Models: ModelOptions{KNNK: 59},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ml, mg := stats.Mean(KSValues(learned)), stats.Mean(KSValues(global)); ml >= mg {
		t.Errorf("UC2 learned mean KS %v not better than global baseline %v", ml, mg)
	}
}

func TestPredictUC2(t *testing.T) {
	db := testCampaign(t)
	intel, _ := db.System("intel")
	amd, _ := db.System("amd")
	pred, actual, err := PredictUC2(amd, intel, "parsec/canneal", UC2Config{
		Rep: distrep.PearsonRnd, Model: KNN, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pred) != len(actual) {
		t.Fatalf("length mismatch %d vs %d", len(pred), len(actual))
	}
}

func TestUC2MissingBenchmarkOnTarget(t *testing.T) {
	db := testCampaign(t)
	intel, _ := db.System("intel")
	amd, _ := db.System("amd")
	// Truncate the target system's benchmark list.
	trimmed := *amd
	trimmed.Benchmarks = amd.Benchmarks[:30]
	if _, err := EvaluateUC2(intel, &trimmed, UC2Config{Rep: distrep.PearsonRnd, Model: KNN}); err == nil {
		t.Error("missing target benchmarks should fail")
	}
}

func TestKSValues(t *testing.T) {
	vals := KSValues([]BenchScore{{KS: 0.1}, {KS: 0.3}})
	if len(vals) != 2 || vals[0] != 0.1 || vals[1] != 0.3 {
		t.Errorf("KSValues = %v", vals)
	}
}
