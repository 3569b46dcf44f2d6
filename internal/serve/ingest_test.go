package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/perfsim"
	"repro/internal/randx"
	"repro/internal/wire"
)

// benchProbeRuns converts one benchmark's measurement runs into the
// wire shape, scaling the wall times by factor (1 = a clean replay of
// the training distribution, 2 = unambiguous drift).
func benchProbeRuns(db *measure.Database, system, benchmark string, factor float64) []ProbeRun {
	sd, _ := db.System(system)
	b, _ := sd.Find(benchmark)
	out := make([]ProbeRun, len(b.Runs))
	for i, r := range b.Runs {
		out[i] = ProbeRun{Seconds: r.Seconds * factor, Metrics: append([]float64(nil), r.Metrics...)}
	}
	return out
}

// measurementsBody marshals one ingest request.
func measurementsBody(t *testing.T, system, benchmark string, runs []ProbeRun) string {
	t.Helper()
	buf, err := json.Marshal(MeasurementsRequest{System: system, Benchmark: benchmark, Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

func TestMeasurementsValidation(t *testing.T) {
	s := newTestServer(t)
	bench := firstBench(testDB)
	runs := benchProbeRuns(testDB, "intel", bench, 1)[:4]
	cases := []struct {
		name, body string
		status     int
	}{
		{"bad json", `{"system":`, http.StatusBadRequest},
		{"missing system", measurementsBody(t, "", bench, runs), http.StatusBadRequest},
		{"missing benchmark", measurementsBody(t, "intel", "", runs), http.StatusBadRequest},
		{"empty runs", measurementsBody(t, "intel", bench, nil), http.StatusBadRequest},
		{"oversized batch", measurementsBody(t, "intel", bench, make([]ProbeRun, maxIngestRuns+1)), http.StatusBadRequest},
		{"unknown system", measurementsBody(t, "vax", bench, runs), http.StatusNotFound},
		{"unknown benchmark", measurementsBody(t, "intel", "nosuite/nobench", runs), http.StatusNotFound},
	}
	for _, tc := range cases {
		rec, resp := post(t, s, "/v1/measurements", tc.body)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d (%v), want %d", tc.name, rec.Code, resp, tc.status)
		}
	}
}

func TestMeasurementsHappyPathAndQuarantine(t *testing.T) {
	s := newTestServer(t)
	bench := firstBench(testDB)
	runs := benchProbeRuns(testDB, "intel", bench, 1)[:8]
	rec, resp := post(t, s, "/v1/measurements", measurementsBody(t, "intel", bench, runs))
	if rec.Code != http.StatusOK {
		t.Fatalf("clean batch: %d %v", rec.Code, resp)
	}
	if resp["accepted"].(float64) != 8 || resp["window_fill"].(float64) != 8 {
		t.Errorf("clean batch response: %v", resp)
	}
	// A fully-defective batch is a structured 422: the client sees the
	// quarantine classes, and the window stays untouched.
	bad := []ProbeRun{{Seconds: -1, Metrics: runs[0].Metrics}, {Seconds: 1, Metrics: []float64{1}}}
	rec, resp = post(t, s, "/v1/measurements", measurementsBody(t, "intel", bench, bad))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("fully-quarantined batch: %d %v, want 422", rec.Code, resp)
	}
	if resp["error"] == nil || resp["quarantined"].(float64) != 2 {
		t.Errorf("422 body: %v", resp)
	}
	if _, ok := resp["by_class"].(map[string]any); !ok {
		t.Errorf("422 body must carry the defect classes: %v", resp)
	}
	if resp["window_fill"].(float64) != 8 {
		t.Errorf("quarantined runs grew the window: %v", resp["window_fill"])
	}
	// The cell shows up in /v1/status with the running totals.
	_, status := get(t, s, "/v1/status")
	d, ok := status["drift"].(map[string]any)
	if !ok {
		t.Fatalf("status drift block missing: %v", status)
	}
	cells := d["cells"].([]any)
	if len(cells) != 1 {
		t.Fatalf("want 1 cell, got %v", d)
	}
	cell := cells[0].(map[string]any)
	if cell["cell"] != "intel/"+bench || cell["accepted"].(float64) != 8 || cell["quarantined"].(float64) != 2 {
		t.Errorf("status cell: %v", cell)
	}
	if cell["state"] != "filling" {
		t.Errorf("cell state = %v, want filling below the detector's minimum window", cell["state"])
	}
}

func TestBodyCap413(t *testing.T) {
	s := newTestServer(t)
	huge := `{"pad":"` + strings.Repeat("x", wire.MaxBodyBytes) + `"}`
	for _, path := range []string{"/v1/measurements", "/v1/predict/uc1", "/v1/predict/uc2", "/v1/predict/uc1/batch"} {
		rec, resp := post(t, s, path, huge)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d (%v), want 413", path, rec.Code, resp)
			continue
		}
		msg, _ := resp["error"].(string)
		if !strings.Contains(msg, "byte limit") {
			t.Errorf("%s: 413 body not structured: %v", path, resp)
		}
	}
	// A body just under the cap still parses (as a 400, not a 413: the
	// padding field is not a valid request, but it was read in full).
	almost := `{"pad":"` + strings.Repeat("x", wire.MaxBodyBytes/2) + `"}`
	if rec, _ := post(t, s, "/v1/measurements", almost); rec.Code != http.StatusBadRequest {
		t.Errorf("under-cap body: status %d, want 400", rec.Code)
	}
}

// driftTestServer builds a server with the fixed detector on a
// stepped clock, so the whole ingest→detect→refit loop is
// deterministic.
func driftTestServer(t *testing.T) *Server {
	t.Helper()
	SetClock(randx.StepClock(time.Unix(1_700_000_000, 0), time.Millisecond))
	t.Cleanup(func() { SetClock(randx.SystemClock) })
	return New(testCampaign(t), Config{
		Workers:        4,
		RequestTimeout: time.Minute,
		Drift:          drift.Config{Seed: 7},
	})
}

// tripCell streams the cell's 2x-slower runs into s until the
// detector trips: 32 runs fill the window to its first evaluation, and
// two batches of 16 add the second and third breaching evaluations
// that trip it. Only the third batch's response reports the trip and
// the scheduled refit; it is returned.
func tripCell(t *testing.T, s *Server, cell string) map[string]any {
	t.Helper()
	runs := benchProbeRuns(testDB, "intel", cell, 2)
	var d map[string]any
	for i, batch := range [][]ProbeRun{runs[:32], runs[32:48], runs[48:64]} {
		rec, resp := post(t, s, "/v1/measurements", measurementsBody(t, "intel", cell, batch))
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest %s batch %d: %d %v", cell, i+1, rec.Code, resp)
		}
		d, _ = resp["drift"].(map[string]any)
		if last := i == 2; (d["tripped"] == true) != last || (d["refit_scheduled"] == true) != last {
			t.Fatalf("cell %s: batch %d drift block %v, want tripped and refit scheduled only on batch 3", cell, i+1, d)
		}
	}
	return d
}

// TestDriftRefitEndToEnd is the acceptance scenario: a drifted
// measurement stream trips the detector, the breaker-guarded
// background refit completes, /v1/status reports the cells fresh, and
// the served predictions move off the stale model.
func TestDriftRefitEndToEnd(t *testing.T) {
	s := driftTestServer(t)
	target := firstBench(testDB)
	body := fmt.Sprintf(`{"system":"intel","benchmark":%q,"seed":7}`, target)
	rec, before := post(t, s, "/v1/predict/uc1", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("baseline predict: %d %v", rec.Code, before)
	}

	// Stream a 2x-slower distribution into every training cell of the
	// predicted benchmark until each one trips.
	intel, _ := testDB.System("intel")
	for i := range intel.Benchmarks {
		if cell := intel.Benchmarks[i].Workload.ID(); cell != target {
			tripCell(t, s, cell)
		}
	}
	s.Drift().Wait()

	// Every cell is fresh again and the refit counters moved.
	_, status := get(t, s, "/v1/status")
	d := status["drift"].(map[string]any)
	if d["drifted"].(float64) != 0 {
		t.Fatalf("cells still drifted after Wait: %v", d)
	}
	for _, cv := range d["cells"].([]any) {
		cell := cv.(map[string]any)
		if cell["state"] != "fresh" || cell["refit_ok"].(float64) < 1 {
			t.Errorf("cell not refreshed: %v", cell)
		}
		if cell["last_refit_age_ms"] == nil {
			t.Errorf("staleness gauge missing: %v", cell)
		}
	}

	// The merged (bimodal) training data changed the served model: the
	// post-refit prediction differs and hits the refitted cache entry.
	rec, after := post(t, s, "/v1/predict/uc1", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-refit predict: %d %v", rec.Code, after)
	}
	if after["cache"] != "hit" {
		t.Errorf("post-refit predict cache = %v, want hit (eager refit)", after["cache"])
	}
	if after["degraded"] == true {
		t.Errorf("successful refit must not serve degraded: %v", after)
	}
	if reflect.DeepEqual(before["quantiles"], after["quantiles"]) {
		t.Error("prediction unchanged although every training cell drifted")
	}

	// The metrics endpoint carries the drift gauges.
	var snap obs.RegistrySnapshot
	if err := json.Unmarshal(getRec(t, s, "/v1/metrics").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Gauges["drift.drifted"] != 0 || snap.Gauges["drift.cells"] != float64(len(intel.Benchmarks)-1) {
		t.Errorf("drift gauges: drifted=%v cells=%v", snap.Gauges["drift.drifted"], snap.Gauges["drift.cells"])
	}
	refitOK, ksCells, ageCells := 0.0, 0, 0
	for name, v := range snap.Gauges {
		switch {
		case strings.HasPrefix(name, "drift.refit_ok."):
			refitOK += v
		case strings.HasPrefix(name, "drift.ks."):
			ksCells++
		case strings.HasPrefix(name, "drift.last_refit_age_ms."):
			ageCells++
		}
	}
	if refitOK < 1 || ksCells == 0 || ageCells == 0 {
		t.Errorf("per-cell drift gauges: refit_ok sum %v, %d ks, %d refit-age", refitOK, ksCells, ageCells)
	}
	// The background refits left traces rooted at refit.fit.
	if !strings.Contains(strings.Join(renderedTraces(s), "\n"), "refit.fit") {
		t.Error("no refit.fit trace recorded")
	}
}

// TestDriftRefitLeavesEarlierSnapshotIntact pins the contract that
// lets drift cells keep the snapshot's runs as their baseline without
// copying them: ingest, a trip and a refit swap in a new database
// snapshot and never write to the runs of the earlier one.
func TestDriftRefitLeavesEarlierSnapshotIntact(t *testing.T) {
	s := driftTestServer(t)
	bench := firstBench(testDB)
	snap := s.pred.DB()
	sd, _ := snap.System("intel")
	b, _ := sd.Find(bench)
	want := perfsim.CloneRuns(b.Runs)
	// A resident model gives the refit something to fit.
	other := sd.Benchmarks[1].Workload.ID()
	if rec, resp := post(t, s, "/v1/predict/uc1", fmt.Sprintf(`{"system":"intel","benchmark":%q}`, other)); rec.Code != http.StatusOK {
		t.Fatalf("predict: %d %v", rec.Code, resp)
	}

	tripCell(t, s, bench)
	s.Drift().Wait()
	_, status := get(t, s, "/v1/status")
	cell := status["drift"].(map[string]any)["cells"].([]any)[0].(map[string]any)
	if cell["trips"].(float64) != 1 || cell["refit_ok"].(float64) != 1 {
		t.Fatalf("want one trip and one refit: %v", cell)
	}
	if s.pred.DB() == snap {
		t.Fatal("refit did not swap in a new snapshot")
	}
	if !reflect.DeepEqual(b.Runs, want) {
		t.Error("ingest, trip or refit wrote to the earlier snapshot's runs")
	}
}

func renderedTraces(s *Server) []string {
	var out []string
	for _, root := range s.Tracer().Traces() {
		out = append(out, root.Render())
	}
	return out
}

// TestNoDriftNoRefit is the control arm: a clean replay of the
// training distribution fills windows and evaluates but never trips,
// schedules, or refits anything.
func TestNoDriftNoRefit(t *testing.T) {
	s := driftTestServer(t)
	bench := firstBench(testDB)
	runs := benchProbeRuns(testDB, "intel", bench, 1) // the training runs themselves
	for batch := 0; batch < 4; batch++ {
		rec, resp := post(t, s, "/v1/measurements",
			measurementsBody(t, "intel", bench, runs[batch*16:(batch+1)*16]))
		if rec.Code != http.StatusOK {
			t.Fatalf("batch %d: %d %v", batch, rec.Code, resp)
		}
		if dr, ok := resp["drift"].(map[string]any); ok && dr["tripped"] == true {
			t.Fatalf("clean replay tripped the detector: %v", resp)
		}
	}
	s.Drift().Wait()
	_, status := get(t, s, "/v1/status")
	d := status["drift"].(map[string]any)
	cell := d["cells"].([]any)[0].(map[string]any)
	if cell["state"] != "fresh" || cell["trips"].(float64) != 0 {
		t.Errorf("clean cell: %v", cell)
	}
	if cell["refit_ok"].(float64)+cell["refit_fail"].(float64)+cell["refit_shed"].(float64) != 0 {
		t.Errorf("refit activity without drift: %v", cell)
	}
}

// TestFailingRefitDegradesNever500s drives the drift loop into a fit
// outage: the refit fails in the background, the cell stays drifted
// with backoff booked, and serving falls back to the stale model —
// flagged degraded, never a 500.
func TestFailingRefitDegradesNever500s(t *testing.T) {
	s := driftTestServer(t)
	target := firstBench(testDB)
	body := fmt.Sprintf(`{"system":"intel","benchmark":%q,"seed":7}`, target)
	rec, before := post(t, s, "/v1/predict/uc1", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("baseline predict: %d %v", rec.Code, before)
	}
	s.Predictor().SetFitHook(func(info core.FitInfo) error {
		if info.Fallback {
			return nil
		}
		return errors.New("drill: refit outage")
	})
	intel, _ := testDB.System("intel")
	cell := intel.Benchmarks[1].Workload.ID()
	tripCell(t, s, cell)
	s.Drift().Wait()

	_, status := get(t, s, "/v1/status")
	d := status["drift"].(map[string]any)
	var st map[string]any
	for _, cv := range d["cells"].([]any) {
		if c := cv.(map[string]any); c["cell"] == "intel/"+cell {
			st = c
		}
	}
	if st == nil || st["state"] != "drifted" || st["refit_fail"].(float64) < 1 {
		t.Fatalf("failed refit cell: %v", st)
	}
	// Serving survives on the stale model, visibly degraded.
	rec, after := post(t, s, "/v1/predict/uc1", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded predict: %d %v — the drift loop must never 500 serving", rec.Code, after)
	}
	if after["degraded"] != true || after["fallback"] != "stale" {
		t.Errorf("want stale fallback, got degraded=%v fallback=%v", after["degraded"], after["fallback"])
	}
	if !reflect.DeepEqual(before["quantiles"], after["quantiles"]) {
		t.Error("stale fallback must reproduce the pre-drift prediction")
	}
}
