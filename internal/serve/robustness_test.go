package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
)

// get issues a GET to the handler and decodes the JSON response.
func get(t *testing.T, s *Server, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	var decoded map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("%s: non-JSON response (%d): %q", path, rec.Code, rec.Body.String())
	}
	return rec, decoded
}

func TestStatusEndpointHealthy(t *testing.T) {
	s := newTestServer(t)
	rec, resp := get(t, s, "/v1/status")
	if rec.Code != http.StatusOK || resp["status"] != "ok" {
		t.Fatalf("fresh server status: %d %v", rec.Code, resp)
	}
	// After serving a prediction the dataset exists; a clean campaign
	// must report a quarantine section with zero quarantined runs.
	body := fmt.Sprintf(`{"system":"intel","benchmark":%q}`, firstBench(testDB))
	if rec, pr := post(t, s, "/v1/predict/uc1", body); rec.Code != http.StatusOK {
		t.Fatalf("predict: %d %v", rec.Code, pr)
	}
	_, resp = get(t, s, "/v1/status")
	q, ok := resp["quarantine"].([]any)
	if !ok || len(q) == 0 {
		t.Fatalf("quarantine section missing after dataset build: %v", resp)
	}
	first := q[0].(map[string]any)
	if first["runs_quarantined"].(float64) != 0 {
		t.Errorf("clean campaign reports quarantined runs: %v", first)
	}
}

func TestDegradedServingVisibleEndToEnd(t *testing.T) {
	s := newTestServer(t)
	s.Predictor().SetFitHook(func(info core.FitInfo) error {
		if info.Fallback {
			return nil
		}
		return errors.New("drill: primary fits disabled")
	})
	body := fmt.Sprintf(`{"system":"intel","benchmark":%q,"seed":3}`, firstBench(testDB))
	rec, resp := post(t, s, "/v1/predict/uc1", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded predict: %d %v", rec.Code, resp)
	}
	if resp["degraded"] != true || resp["fallback"] != "knn" {
		t.Fatalf("response must flag the fallback: degraded=%v fallback=%v",
			resp["degraded"], resp["fallback"])
	}
	// The flip is visible within the same request on both posture
	// surfaces: /v1/status and /readyz.
	rec, status := get(t, s, "/v1/status")
	if rec.Code != http.StatusOK || status["status"] != "degraded" {
		t.Fatalf("/v1/status = %d %v, want degraded", rec.Code, status)
	}
	if status["breakers_open"].(float64) < 1 || status["knn_served"].(float64) < 1 {
		t.Errorf("status counters: %v", status)
	}
	brs, ok := status["breakers"].([]any)
	if !ok || len(brs) == 0 {
		t.Fatalf("breaker list missing: %v", status)
	}
	br := brs[0].(map[string]any)
	if br["open"] != true || br["last_error"] == "" {
		t.Errorf("breaker entry: %v", br)
	}
	rec, ready := get(t, s, "/readyz")
	if rec.Code != http.StatusOK || ready["status"] != "degraded" {
		t.Errorf("/readyz = %d %v, want 200 degraded (still serving)", rec.Code, ready)
	}
}

func TestBreakerOpen503WithRetryAfter(t *testing.T) {
	s := newTestServer(t)
	s.Predictor().SetFitHook(func(core.FitInfo) error {
		return errors.New("drill: total fit outage")
	})
	body := fmt.Sprintf(`{"system":"intel","benchmark":%q}`, firstBench(testDB))
	// First request attempts the fit, fails, trips the breaker: 500.
	rec, _ := post(t, s, "/v1/predict/uc1", body)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("failed fit: status %d, want 500", rec.Code)
	}
	// Second request is rejected by the open breaker: 503 + Retry-After.
	rec, resp := post(t, s, "/v1/predict/uc1", body)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("open breaker: status %d (%v), want 503", rec.Code, resp)
	}
	ra := rec.Header().Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want integer seconds >= 1", ra)
	}
}

func TestQuarantinedBenchmarkIs422(t *testing.T) {
	db, _, err := faults.Inject(testCampaign(t), faults.Config{})
	if err != nil {
		t.Fatal(err)
	}
	intel, _ := db.System("intel")
	for i := range intel.Benchmarks[0].Runs {
		intel.Benchmarks[0].Runs[i].Seconds = math.NaN()
	}
	s := New(db, Config{Workers: 2, RequestTimeout: time.Minute})
	bad := intel.Benchmarks[0].Workload.ID()
	body := fmt.Sprintf(`{"system":"intel","benchmark":%q}`, bad)
	rec, resp := post(t, s, "/v1/predict/uc1", body)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("quarantined benchmark: status %d (%v), want 422", rec.Code, resp)
	}
	// The unusable benchmark is listed in the status quarantine view.
	_, status := get(t, s, "/v1/status")
	found := false
	for _, qv := range status["quarantine"].([]any) {
		q := qv.(map[string]any)
		if q["system"] != "intel" {
			continue
		}
		for _, b := range q["unusable_benchmarks"].([]any) {
			if b == bad {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("unusable benchmark %q missing from /v1/status quarantine: %v", bad, status["quarantine"])
	}
	// Its healthy siblings keep serving.
	ok := intel.Benchmarks[1].Workload.ID()
	rec, _ = post(t, s, "/v1/predict/uc1", fmt.Sprintf(`{"system":"intel","benchmark":%q}`, ok))
	if rec.Code != http.StatusOK {
		t.Errorf("healthy benchmark beside a quarantined one: status %d", rec.Code)
	}
}

// TestShedRequestCountsSaturated holds the only worker slot, so a
// prediction queues for maxQueueWait and is shed with 503 +
// Retry-After; the shed request shows up in GET /v1/metrics as one
// http.saturated count.
func TestShedRequestCountsSaturated(t *testing.T) {
	s := New(testCampaign(t), Config{Workers: 1, RequestTimeout: time.Minute})
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	body := fmt.Sprintf(`{"system":"intel","benchmark":%q}`, firstBench(testDB))
	rec, resp := post(t, s, "/v1/predict/uc1", body)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("saturated pool: %d %v (Retry-After %q), want 503 with Retry-After",
			rec.Code, resp, rec.Header().Get("Retry-After"))
	}
	var snap obs.RegistrySnapshot
	if err := json.Unmarshal(getRec(t, s, "/v1/metrics").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["http.saturated"]; got != 1 {
		t.Errorf("http.saturated = %d, want 1", got)
	}
	if got := snap.Counters["http.status.5xx"]; got != 1 {
		t.Errorf("http.status.5xx = %d, want 1 (the shed request)", got)
	}
	// The scrape itself is the one request in flight.
	if got := snap.Gauges["http.in_flight"]; got != 1 {
		t.Errorf("http.in_flight during the scrape = %v, want 1", got)
	}
}
