package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/perfsim"
)

var (
	testDBOnce sync.Once
	testDB     *measure.Database
)

// testCampaign collects a reduced campaign (16 benchmarks, 2 systems)
// shared across the package's tests.
func testCampaign(t testing.TB) *measure.Database {
	t.Helper()
	testDBOnce.Do(func() {
		db, err := measure.Collect(
			[]*perfsim.System{perfsim.NewIntelSystem(), perfsim.NewAMDSystem()},
			perfsim.TableI()[:16],
			measure.Config{Runs: 80, ProbeRuns: 12, Seed: 20250805},
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

func newTestServer(t *testing.T) *Server {
	t.Helper()
	return New(testCampaign(t), Config{Workers: 4, RequestTimeout: time.Minute})
}

// post sends a JSON body to the handler and decodes the response.
func post(t *testing.T, s *Server, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	var decoded map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("%s: non-JSON response (%d): %q", path, rec.Code, rec.Body.String())
	}
	return rec, decoded
}

func firstBench(db *measure.Database) string {
	return db.Systems[0].Benchmarks[0].Workload.ID()
}

func TestHealthAndReady(t *testing.T) {
	s := newTestServer(t)
	for _, path := range []string{"/healthz", "/readyz"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("%s: %d, want 200", path, rec.Code)
		}
	}
}

func TestSystemsEndpoint(t *testing.T) {
	s := newTestServer(t)
	req := httptest.NewRequest(http.MethodGet, "/v1/systems", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var sys SystemsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sys); err != nil {
		t.Fatal(err)
	}
	if len(sys.Systems) != 2 {
		t.Fatalf("want 2 systems, got %d", len(sys.Systems))
	}
	if len(sys.Systems[0].Benchmarks) != 16 {
		t.Errorf("want 16 benchmarks, got %d", len(sys.Systems[0].Benchmarks))
	}
	if sys.RunsPerBenchmark != 80 {
		t.Errorf("runs_per_benchmark = %d, want 80", sys.RunsPerBenchmark)
	}
}

func TestPredictUC1HappyPath(t *testing.T) {
	s := newTestServer(t)
	body := fmt.Sprintf(`{"system":"intel","benchmark":%q,"seed":7}`, firstBench(testDB))
	rec, resp := post(t, s, "/v1/predict/uc1", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, resp)
	}
	if resp["use_case"].(float64) != 1 {
		t.Error("use_case != 1")
	}
	if resp["cache"] != "miss" {
		t.Errorf("first request cache = %v, want miss", resp["cache"])
	}
	q, ok := resp["quantiles"].(map[string]any)
	if !ok || q["p50"] == nil || q["p99"] == nil {
		t.Errorf("quantiles missing: %v", resp["quantiles"])
	}
	if resp["ks_vs_measured"] == nil {
		t.Error("benchmark request must score against ground truth")
	}
	ks := resp["ks_vs_measured"].(float64)
	if ks < 0 || ks > 1 {
		t.Errorf("KS = %v out of [0,1]", ks)
	}
	hist, ok := resp["histogram"].(map[string]any)
	if !ok || len(hist["density"].([]any)) != 50 {
		t.Errorf("histogram should have 50 density bins: %v", resp["histogram"])
	}
	if m, ok := resp["measured"].(map[string]any); !ok || m["n"].(float64) != 80 {
		t.Errorf("measured summary wrong: %v", resp["measured"])
	}
}

func TestPredictUC2HappyPath(t *testing.T) {
	s := newTestServer(t)
	body := fmt.Sprintf(`{"source":"amd","target":"intel","benchmark":%q,"model":"rf","seed":7}`, firstBench(testDB))
	rec, resp := post(t, s, "/v1/predict/uc2", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, resp)
	}
	if resp["use_case"].(float64) != 2 {
		t.Error("use_case != 2")
	}
	if resp["model"] != "RF" {
		t.Errorf("model = %v, want RF", resp["model"])
	}
	if resp["ks_vs_measured"] == nil {
		t.Error("UC2 benchmark request must score against ground truth")
	}
}

func TestPredictBadJSON(t *testing.T) {
	s := newTestServer(t)
	rec, resp := post(t, s, "/v1/predict/uc1", `{"system": "intel",`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	if resp["error"] == nil {
		t.Error("400 body must carry an error message")
	}
}

func TestPredictValidation(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		path, body string
	}{
		{"/v1/predict/uc1", `{"benchmark":"npb/bt"}`}, // no system
		{"/v1/predict/uc1", `{"system":"intel"}`},     // neither benchmark nor probe
		{"/v1/predict/uc1", fmt.Sprintf(`{"system":"intel","benchmark":%q,"probe_runs":[{"seconds":1,"metrics":[]}]}`, firstBench(testDB))}, // both
		{"/v1/predict/uc2", `{"source":"amd","benchmark":"npb/bt"}`},                                                                        // no target
		{"/v1/predict/uc1", `{"system":"intel","benchmark":"npb/bt","model":"svm"}`},                                                        // bad model
		{"/v1/predict/uc1", `{"system":"intel","benchmark":"npb/bt","representation":"fourier"}`},                                           // bad rep
	}
	for _, c := range cases {
		rec, resp := post(t, s, c.path, c.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400", c.path, c.body, rec.Code)
		}
		if resp["error"] == nil {
			t.Errorf("%s: missing error body", c.body)
		}
	}
}

func TestPredictUnknownIDsGet404(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		path, body string
	}{
		{"/v1/predict/uc1", `{"system":"sparc","benchmark":"npb/bt"}`},
		{"/v1/predict/uc1", `{"system":"intel","benchmark":"nosuite/nothing"}`},
		{"/v1/predict/uc2", `{"source":"amd","target":"m68k","benchmark":"npb/bt"}`},
		{"/v1/predict/uc2", `{"source":"amd","target":"intel","benchmark":"nosuite/nothing"}`},
	}
	for _, c := range cases {
		rec, resp := post(t, s, c.path, c.body)
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404 (%v)", c.body, rec.Code, resp)
		}
		msg, _ := resp["error"].(string)
		if msg == "" {
			t.Errorf("%s: 404 must carry a JSON error body", c.body)
		}
		if code, _ := resp["code"].(float64); code != 404 {
			t.Errorf("%s: body code = %v, want 404", c.body, resp["code"])
		}
	}
}

func TestPredictCanceledContext(t *testing.T) {
	s := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body := fmt.Sprintf(`{"system":"intel","benchmark":%q}`, firstBench(testDB))
	req := httptest.NewRequest(http.MethodPost, "/v1/predict/uc1", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest && rec.Code != http.StatusGatewayTimeout {
		t.Errorf("canceled request: status %d, want 499", rec.Code)
	}
	// The server must stay serviceable afterwards.
	rec2, _ := post(t, s, "/v1/predict/uc1", body)
	if rec2.Code != http.StatusOK {
		t.Errorf("request after cancellation: status %d, want 200", rec2.Code)
	}
}

func TestPredictDeadline(t *testing.T) {
	s := New(testCampaign(t), Config{Workers: 1, RequestTimeout: time.Nanosecond})
	body := fmt.Sprintf(`{"system":"intel","benchmark":%q}`, firstBench(testDB))
	rec, _ := post(t, s, "/v1/predict/uc1", body)
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504", rec.Code)
	}
}

func TestProbeProfileRequest(t *testing.T) {
	s := newTestServer(t)
	b := &testDB.Systems[0].Benchmarks[2]
	probe := make([]ProbeRun, 10)
	for i, r := range b.ProbeRuns[:10] {
		probe[i] = ProbeRun{Seconds: r.Seconds, Metrics: r.Metrics}
	}
	reqBody, _ := json.Marshal(PredictRequest{System: "intel", ProbeRuns: probe, N: 200, Seed: 7})
	rec, resp := post(t, s, "/v1/predict/uc1", string(reqBody))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, resp)
	}
	if resp["n"].(float64) != 200 {
		t.Errorf("n = %v, want 200", resp["n"])
	}
	if resp["ks_vs_measured"] != nil {
		t.Error("raw-profile prediction has no ground truth to score against")
	}
}

func TestConcurrentRequests(t *testing.T) {
	s := newTestServer(t)
	benches := testDB.Systems[0].Benchmarks
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"system":"intel","benchmark":%q,"seed":7}`,
				benches[g%len(benches)].Workload.ID())
			req := httptest.NewRequest(http.MethodPost, "/v1/predict/uc1", strings.NewReader(body))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				errs <- fmt.Sprintf("goroutine %d: status %d: %s", g, rec.Code, rec.Body.String())
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestMetricsEndpoint pins the replica's one metrics surface:
// GET /v1/metrics serves the obs registry, and the retired GET
// /metrics and /debug/vars paths are gone. TestObsMetricsEndpoint
// checks the registry's contents.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t)
	post(t, s, "/v1/predict/uc1", fmt.Sprintf(`{"system":"intel","benchmark":%q}`, firstBench(testDB)))
	for _, path := range []string{"/metrics", "/debug/vars"} {
		if rec := getRec(t, s, path); rec.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, rec.Code)
		}
	}
	rec := getRec(t, s, "/v1/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/metrics: status %d", rec.Code)
	}
	var snap obs.RegistrySnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("GET /v1/metrics is not a registry snapshot: %v", err)
	}
	if snap.Histograms["http.latency.POST /v1/predict/uc1"].Count != 1 {
		t.Errorf("per-route histogram missing: %v", snap.Histograms)
	}
}

// stripVolatile removes the fields that legitimately differ between a
// miss and a hit response.
func stripVolatile(m map[string]any) map[string]any {
	out := map[string]any{}
	for k, v := range m {
		if k == "cache" || k == "elapsed_ms" {
			continue
		}
		out[k] = v
	}
	return out
}

func TestCacheHitIdenticalResponse(t *testing.T) {
	s := newTestServer(t)
	hits0 := s.Predictor().CacheStats().Hits
	body := fmt.Sprintf(`{"system":"intel","benchmark":%q,"model":"xgboost","seed":11}`, firstBench(testDB))
	rec1, resp1 := post(t, s, "/v1/predict/uc1", body)
	rec2, resp2 := post(t, s, "/v1/predict/uc1", body)
	if rec1.Code != http.StatusOK || rec2.Code != http.StatusOK {
		t.Fatalf("statuses %d/%d", rec1.Code, rec2.Code)
	}
	if resp1["cache"] != "miss" || resp2["cache"] != "hit" {
		t.Errorf("cache fields = %v/%v, want miss/hit", resp1["cache"], resp2["cache"])
	}
	if s.Predictor().CacheStats().Hits != hits0+1 {
		t.Error("hit counter did not increment")
	}
	if !reflect.DeepEqual(stripVolatile(resp1), stripVolatile(resp2)) {
		t.Error("identical request with identical seed must produce identical prediction")
	}
}

// TestServeGracefulShutdown runs the real listener: readiness answers
// over TCP, and canceling the context drains and returns nil.
func TestServeGracefulShutdown(t *testing.T) {
	srv := New(testCampaign(t), Config{Addr: "127.0.0.1:0"})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	resp, err := http.Get("http://" + srv.Addr() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("readyz over TCP: %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("graceful shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Error("server did not drain within 15s")
	}
}

func TestBatchPredictUC1(t *testing.T) {
	s := newTestServer(t)
	profiles := make([][]ProbeRun, 3)
	for k := range profiles {
		b := &testDB.Systems[0].Benchmarks[k]
		profiles[k] = make([]ProbeRun, 10)
		for i, r := range b.ProbeRuns[:10] {
			profiles[k][i] = ProbeRun{Seconds: r.Seconds, Metrics: r.Metrics}
		}
	}
	reqBody, _ := json.Marshal(BatchPredictRequest{System: "intel", Profiles: profiles, N: 150, Seed: 7})
	rec, resp := post(t, s, "/v1/predict/uc1/batch", string(reqBody))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, resp)
	}
	if resp["count"].(float64) != 3 {
		t.Errorf("count = %v, want 3", resp["count"])
	}
	results := resp["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("%d results, want 3", len(results))
	}
	for i, r := range results {
		res := r.(map[string]any)
		if res["n"].(float64) != 150 {
			t.Errorf("result %d: n = %v, want 150", i, res["n"])
		}
		if len(res["quantiles"].(map[string]any)) == 0 {
			t.Errorf("result %d: no quantiles", i)
		}
	}

	// The three profiles share one model fit; repeating the batch is a
	// deterministic cache hit.
	rec2, resp2 := post(t, s, "/v1/predict/uc1/batch", string(reqBody))
	if rec2.Code != http.StatusOK {
		t.Fatalf("repeat status %d: %v", rec2.Code, resp2)
	}
	if resp2["cache"] != "hit" {
		t.Errorf("repeat batch cache = %v, want hit", resp2["cache"])
	}
	got, _ := json.Marshal(resp["results"])
	got2, _ := json.Marshal(resp2["results"])
	if string(got) != string(got2) {
		t.Error("repeat batch results differ")
	}

	// Batch result 0 matches the single-profile endpoint bit-for-bit.
	singleBody, _ := json.Marshal(PredictRequest{System: "intel", ProbeRuns: profiles[0], N: 150, Seed: 7})
	recS, respS := post(t, s, "/v1/predict/uc1", string(singleBody))
	if recS.Code != http.StatusOK {
		t.Fatalf("single status %d: %v", recS.Code, respS)
	}
	bq, _ := json.Marshal(results[0].(map[string]any)["quantiles"])
	sq, _ := json.Marshal(respS["quantiles"])
	if string(bq) != string(sq) {
		t.Errorf("batch[0] quantiles %s != single-profile %s", bq, sq)
	}
}

func TestBatchPredictValidation(t *testing.T) {
	s := newTestServer(t)
	oneRun := `[{"seconds":1,"metrics":[1,2]}]`
	over := `{"system":"intel","profiles":[` + oneRun
	for i := 1; i < 257; i++ {
		over += "," + oneRun
	}
	over += `]}`
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"profiles":[` + oneRun + `]}`, http.StatusBadRequest},              // no system
		{`{"system":"intel","profiles":[]}`, http.StatusBadRequest},           // empty batch
		{over, http.StatusBadRequest},                                         // over cap
		{`{"system":"vax","profiles":[` + oneRun + `]}`, http.StatusNotFound}, // unknown system
	} {
		rec, resp := post(t, s, "/v1/predict/uc1/batch", tc.body)
		if rec.Code != tc.code {
			t.Errorf("body %.60s...: status %d, want %d (%v)", tc.body, rec.Code, tc.code, resp)
		}
	}
}

// TestRequestSizeCaps pins the caps on "n" and "bins": a raw-profile
// request at both caps is served with n samples and bins densities, on
// the single and the batch endpoint, and one past either cap is a 400
// on every prediction endpoint before any decode is sized by it.
func TestRequestSizeCaps(t *testing.T) {
	s := newTestServer(t)
	b := &testDB.Systems[0].Benchmarks[0]
	profile := make([]ProbeRun, 10)
	for i, r := range b.ProbeRuns[:10] {
		profile[i] = ProbeRun{Seconds: r.Seconds, Metrics: r.Metrics}
	}
	single := func(n, bins int) string {
		body, _ := json.Marshal(PredictRequest{System: "intel", ProbeRuns: profile, N: n, Bins: bins})
		return string(body)
	}
	batch := func(n, bins int) string {
		body, _ := json.Marshal(BatchPredictRequest{System: "intel", Profiles: [][]ProbeRun{profile}, N: n, Bins: bins})
		return string(body)
	}
	uc2 := func(n, bins int) string {
		body, _ := json.Marshal(PredictRequest{Source: "amd", Target: "intel", ProbeRuns: profile,
			SourceRelTimes: []float64{0.9, 1, 1.1}, N: n, Bins: bins})
		return string(body)
	}

	rec, resp := post(t, s, "/v1/predict/uc1", single(maxSamples, maxBins))
	if rec.Code != http.StatusOK {
		t.Fatalf("uc1 at the caps: %d %v", rec.Code, resp)
	}
	if resp["n"].(float64) != maxSamples || len(resp["histogram"].(map[string]any)["density"].([]any)) != maxBins {
		t.Errorf("uc1 at the caps: n = %v, %d densities", resp["n"], len(resp["histogram"].(map[string]any)["density"].([]any)))
	}
	rec, resp = post(t, s, "/v1/predict/uc1/batch", batch(maxSamples, maxBins))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch at the caps: %d %v", rec.Code, resp)
	}
	res := resp["results"].([]any)[0].(map[string]any)
	if res["n"].(float64) != maxSamples || len(res["histogram"].(map[string]any)["density"].([]any)) != maxBins {
		t.Errorf("batch at the caps: n = %v, %d densities", res["n"], len(res["histogram"].(map[string]any)["density"].([]any)))
	}

	for _, tc := range []struct {
		path string
		body func(n, bins int) string
	}{{"/v1/predict/uc1", single}, {"/v1/predict/uc1/batch", batch}, {"/v1/predict/uc2", uc2}} {
		for _, over := range []struct {
			field   string
			n, bins int
		}{{`"n"`, maxSamples + 1, maxBins}, {`"bins"`, maxSamples, maxBins + 1}} {
			rec, resp := post(t, s, tc.path, tc.body(over.n, over.bins))
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s with %s past its cap: status %d, want 400", tc.path, over.field, rec.Code)
				continue
			}
			if msg, _ := resp["error"].(string); !strings.Contains(msg, over.field) {
				t.Errorf("%s with %s past its cap: error %q does not name the field", tc.path, over.field, msg)
			}
		}
	}
}
