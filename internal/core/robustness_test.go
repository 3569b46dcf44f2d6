package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/distrep"
	"repro/internal/faults"
	"repro/internal/measure"
	"repro/internal/perfsim"
)

var (
	robustDBOnce sync.Once
	robustDB     *measure.Database
)

// robustCampaign is a small (10-benchmark, 2-system) campaign for the
// degraded-mode tests, where per-model fit cost matters less than the
// fault machinery around it.
func robustCampaign(t *testing.T) *measure.Database {
	t.Helper()
	robustDBOnce.Do(func() {
		db, err := measure.Collect(
			[]*perfsim.System{perfsim.NewIntelSystem(), perfsim.NewAMDSystem()},
			perfsim.TableI()[:10],
			measure.Config{Runs: 50, ProbeRuns: 10, Seed: 20250806},
		)
		if err != nil {
			t.Fatalf("collect: %v", err)
		}
		robustDB = db
	})
	if robustDB == nil {
		t.Fatal("campaign unavailable")
	}
	return robustDB
}

// cloneDB deep-copies the campaign via a zero-rate injection pass.
func cloneDB(t *testing.T, db *measure.Database) *measure.Database {
	t.Helper()
	out, _, err := faults.Inject(db, faults.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func robustConfig() UC1Config {
	return UC1Config{Rep: distrep.PearsonRnd, Model: KNN, NumSamples: 10, Seed: 42}
}

func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func TestPredictorQuarantinedBenchmarkErrors(t *testing.T) {
	db := cloneDB(t, robustCampaign(t))
	intel, _ := db.System("intel")
	bad := intel.Benchmarks[0].Workload.ID()
	for i := range intel.Benchmarks[0].Runs {
		intel.Benchmarks[0].Runs[i].Seconds = math.NaN()
	}
	p := NewPredictor(db)
	_, err := p.PredictUC1(context.Background(), "intel", bad, robustConfig())
	if !errors.Is(err, ErrBenchmarkQuarantined) {
		t.Fatalf("all-runs-quarantined benchmark: err = %v, want ErrBenchmarkQuarantined", err)
	}
	// The rest of the system must keep serving.
	ok := intel.Benchmarks[1].Workload.ID()
	pred, err := p.PredictUC1(context.Background(), "intel", ok, robustConfig())
	if err != nil {
		t.Fatalf("healthy benchmark after quarantine: %v", err)
	}
	if !finite(pred.Predicted) || pred.Degraded {
		t.Error("healthy benchmark must serve a finite, non-degraded prediction")
	}
	qr := p.QuarantineReports()
	if qr["intel"].Runs.Quarantined < len(intel.Benchmarks[0].Runs) {
		t.Errorf("quarantine report missing the bad runs: %+v", qr["intel"].Runs)
	}
	if len(qr["intel"].Benchmarks) == 0 {
		t.Error("per-benchmark quarantine breakdown missing")
	}
}

func TestPredictorSingleSurvivingProbeRun(t *testing.T) {
	db := cloneDB(t, robustCampaign(t))
	intel, _ := db.System("intel")
	b := &intel.Benchmarks[1]
	for i := range b.ProbeRuns[:len(b.ProbeRuns)-1] {
		b.ProbeRuns[i].Seconds = math.NaN()
	}
	p := NewPredictor(db)
	pred, err := p.PredictUC1(context.Background(), "intel", b.Workload.ID(), robustConfig())
	if err != nil {
		t.Fatalf("single surviving probe run must stay usable: %v", err)
	}
	// A one-run profile has zero variance; its std/skew/kurt features
	// must be defined (0/0/3), never NaN, and the prediction finite.
	if !finite(pred.Predicted) {
		t.Error("prediction from a single-run profile produced non-finite values")
	}
}

func TestPredictorFaultSeedDeterminism(t *testing.T) {
	db := robustCampaign(t)
	cfg := faults.Config{Seed: 7, CorruptRate: 0.05}
	f1, _, err := faults.Inject(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f2, _, err := faults.Inject(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := NewPredictor(f1), NewPredictor(f2)
	for _, b := range f1.Systems[0].Benchmarks[:3] {
		id := b.Workload.ID()
		a, err1 := p1.PredictUC1(context.Background(), "intel", id, robustConfig())
		c, err2 := p2.PredictUC1(context.Background(), "intel", id, robustConfig())
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: same faults seed, different usability: %v vs %v", id, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if !reflect.DeepEqual(a.Predicted, c.Predicted) {
			t.Errorf("%s: same faults seed must give bit-identical predictions", id)
		}
	}
}

func TestPredictorSurgicalQuarantine(t *testing.T) {
	db := robustCampaign(t)
	faulted, rep, err := faults.Inject(db, faults.Config{
		Seed: 11, CorruptRate: 0.05, Systems: []string{"intel"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() == 0 {
		t.Fatal("nothing injected")
	}
	clean := NewPredictor(db)
	dirty := NewPredictor(faulted)
	// Corruption confined to intel must not move any amd prediction by
	// a single bit.
	for _, b := range db.Systems[1].Benchmarks {
		id := b.Workload.ID()
		want, err := clean.PredictUC1(context.Background(), "amd", id, robustConfig())
		if err != nil {
			t.Fatalf("clean amd %s: %v", id, err)
		}
		got, err := dirty.PredictUC1(context.Background(), "amd", id, robustConfig())
		if err != nil {
			t.Fatalf("amd %s with intel-only faults: %v", id, err)
		}
		if !reflect.DeepEqual(want.Predicted, got.Predicted) {
			t.Fatalf("amd %s prediction changed under intel-only fault injection", id)
		}
	}
	// And the zero-rate clone is bit-compatible with the original:
	// validation of clean data is a pass-through.
	cloned := NewPredictor(cloneDB(t, db))
	id := db.Systems[0].Benchmarks[0].Workload.ID()
	want, _ := clean.PredictUC1(context.Background(), "intel", id, robustConfig())
	got, err := cloned.PredictUC1(context.Background(), "intel", id, robustConfig())
	if err != nil || !reflect.DeepEqual(want.Predicted, got.Predicted) {
		t.Errorf("zero-rate clone predictions diverged (err=%v)", err)
	}
}

func TestPredictorFitHookKNNFallback(t *testing.T) {
	db := robustCampaign(t)
	p := NewPredictor(db)
	p.SetFitHook(func(info FitInfo) error {
		if info.Fallback {
			return nil
		}
		return errors.New("injected fit failure")
	})
	cfg := robustConfig()
	cfg.Model = RandomForest
	id := db.Systems[0].Benchmarks[0].Workload.ID()
	pred, err := p.PredictUC1(context.Background(), "intel", id, cfg)
	if err != nil {
		t.Fatalf("killed primary fit must fall back, got error: %v", err)
	}
	if !pred.Degraded || pred.Fallback != "knn" {
		t.Fatalf("prediction = {Degraded:%v Fallback:%q}, want degraded knn", pred.Degraded, pred.Fallback)
	}
	if !finite(pred.Predicted) {
		t.Error("fallback prediction must be finite")
	}
	ds := p.Degraded()
	if ds.KNNServed == 0 || ds.BreakersOpen == 0 {
		t.Errorf("degraded stats = %+v, want knn_served > 0 and an open breaker", ds)
	}
	states := p.Breakers()
	if len(states) == 0 || !states[0].Open || states[0].Trips == 0 {
		t.Errorf("breaker states = %+v, want one open tripped breaker", states)
	}
	// Healing the fit path does not help while the breaker is open:
	// the fallback keeps serving (no thundering refit herd).
	p.SetFitHook(nil)
	pred2, err := p.PredictUC1(context.Background(), "intel", id, cfg)
	if err != nil || pred2.Fallback != "knn" {
		t.Errorf("open breaker must keep serving the fallback, got (%+v, %v)", pred2, err)
	}
}

func TestPredictorStaleFallback(t *testing.T) {
	db := robustCampaign(t)
	p := NewPredictor(db)
	cfg := robustConfig()
	id := db.Systems[0].Benchmarks[0].Workload.ID()
	want, err := p.PredictUC1(context.Background(), "intel", id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.refreshSystem("intel")
	p.SetFitHook(func(FitInfo) error { return errors.New("refit killed") })
	got, err := p.PredictUC1(context.Background(), "intel", id, cfg)
	if err != nil {
		t.Fatalf("stale fallback must serve, got: %v", err)
	}
	if !got.Degraded || got.Fallback != "stale" {
		t.Fatalf("prediction = {Degraded:%v Fallback:%q}, want degraded stale", got.Degraded, got.Fallback)
	}
	// The stale model is the pre-refit model: identical output.
	if !reflect.DeepEqual(want.Predicted, got.Predicted) {
		t.Error("stale fallback must reproduce the pre-refit prediction bit-for-bit")
	}
	if p.Degraded().StaleServed == 0 {
		t.Error("stale_served counter not incremented")
	}
}

func TestPredictorBreakerRecovery(t *testing.T) {
	db := robustCampaign(t)
	p := NewPredictor(db)
	p.SetBreakerConfig(BreakerConfig{FailureThreshold: 1, BaseBackoff: time.Second, MaxBackoff: time.Minute})
	now := time.Unix(1_700_000_000, 0)
	p.SetClock(func() time.Time { return now })
	// Kill every fit, fallback included: requests must error, typed.
	p.SetFitHook(func(FitInfo) error { return errors.New("total outage") })
	cfg := robustConfig()
	id := db.Systems[0].Benchmarks[0].Workload.ID()
	_, err := p.PredictUC1(context.Background(), "intel", id, cfg)
	if !errors.Is(err, ErrFitFailed) {
		t.Fatalf("first failed fit: err = %v, want ErrFitFailed", err)
	}
	// The breaker is now open: the next request is rejected up front
	// with a retry hint instead of re-attempting the fit.
	_, err = p.PredictUC1(context.Background(), "intel", id, cfg)
	var boe *BreakerOpenError
	if !errors.As(err, &boe) {
		t.Fatalf("open breaker: err = %v, want *BreakerOpenError", err)
	}
	if boe.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", boe.RetryAfter)
	}
	if !errors.Is(err, ErrFitFailed) {
		t.Error("BreakerOpenError must carry the fit-failure class")
	}
	// Heal the fit path and advance past the backoff: the half-open
	// probe refits and the breaker closes.
	p.SetFitHook(nil)
	now = now.Add(2 * time.Second)
	pred, err := p.PredictUC1(context.Background(), "intel", id, cfg)
	if err != nil {
		t.Fatalf("half-open probe after healing: %v", err)
	}
	if pred.Degraded {
		t.Error("recovered primary model must not be flagged degraded")
	}
	for _, st := range p.Breakers() {
		if st.Open {
			t.Errorf("breaker %q still open after recovery", st.Key)
		}
	}
}

func TestPredictorWarmIsStrict(t *testing.T) {
	db := robustCampaign(t)
	p := NewPredictor(db)
	p.SetFitHook(func(info FitInfo) error {
		if info.Fallback {
			return nil
		}
		return errors.New("killed")
	})
	if err := p.Warm(context.Background(), []UC1Config{robustConfig()}, nil); !errors.Is(err, ErrFitFailed) {
		t.Errorf("Warm must surface fit failures, not fall back: err = %v", err)
	}
}
