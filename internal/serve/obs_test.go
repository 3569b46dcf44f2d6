package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/randx"
)

// getRec sends a GET to the handler and returns the recorder.
func getRec(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// spanNames flattens a trace tree into depth-first span names.
func spanNames(s *obs.Span) []string {
	names := []string{s.Name()}
	for _, c := range s.Children() {
		names = append(names, spanNames(c)...)
	}
	return names
}

func contains(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

// TestEveryPredictRequestTraced is the acceptance check for the
// tracing layer: each /v1/predict/* request must commit a trace of at
// least three spans (route -> predictor -> model), on both the miss
// (fit) and the hit (decode-only) path.
func TestEveryPredictRequestTraced(t *testing.T) {
	s := newTestServer(t)
	body := fmt.Sprintf(`{"system":"intel","benchmark":%q,"seed":3}`, firstBench(testDB))

	// Miss: fit + decode.
	if rec, resp := post(t, s, "/v1/predict/uc1", body); rec.Code != http.StatusOK {
		t.Fatalf("miss status %d: %v", rec.Code, resp)
	}
	// Hit: decode only.
	if rec, resp := post(t, s, "/v1/predict/uc1", body); rec.Code != http.StatusOK {
		t.Fatalf("hit status %d: %v", rec.Code, resp)
	}

	traces := s.Tracer().Traces()
	if len(traces) != 2 {
		t.Fatalf("want 2 committed traces, got %d", len(traces))
	}
	for i, root := range traces {
		names := spanNames(root)
		if root.Name() != "POST /v1/predict/uc1" {
			t.Errorf("trace %d root = %q", i, root.Name())
		}
		if root.SpanCount() < 3 {
			t.Errorf("trace %d has %d spans, want >= 3:\n%s", i, root.SpanCount(), root.Render())
		}
		if !contains(names, "predictor.uc1") {
			t.Errorf("trace %d lacks predictor.uc1:\n%s", i, root.Render())
		}
		if !contains(names, "model.predict") {
			t.Errorf("trace %d lacks model.predict:\n%s", i, root.Render())
		}
		if root.Attr("status") != "200" {
			t.Errorf("trace %d status attr = %q, want 200", i, root.Attr("status"))
		}
	}
	// The miss trace must show the fit; the hit trace must say so.
	if !contains(spanNames(traces[0]), "model.fit") {
		t.Errorf("miss trace lacks model.fit:\n%s", traces[0].Render())
	}
	missAttrs, hitAttrs := findAttr(traces[0], "cache_hit"), findAttr(traces[1], "cache_hit")
	if missAttrs != "false" || hitAttrs != "true" {
		t.Errorf("cache_hit attrs = %q/%q, want false/true", missAttrs, hitAttrs)
	}
}

// findAttr searches the whole trace tree for the first span carrying
// the key and returns its value.
func findAttr(s *obs.Span, key string) string {
	if v := s.Attr(key); v != "" {
		return v
	}
	for _, c := range s.Children() {
		if v := findAttr(c, key); v != "" {
			return v
		}
	}
	return ""
}

func TestUC2AndBatchRequestsTraced(t *testing.T) {
	s := newTestServer(t)
	uc2 := fmt.Sprintf(`{"source":"amd","target":"intel","benchmark":%q,"seed":3}`, firstBench(testDB))
	if rec, resp := post(t, s, "/v1/predict/uc2", uc2); rec.Code != http.StatusOK {
		t.Fatalf("uc2 status %d: %v", rec.Code, resp)
	}
	traces := s.Tracer().Traces()
	if len(traces) != 1 {
		t.Fatalf("want 1 trace, got %d", len(traces))
	}
	names := spanNames(traces[0])
	if traces[0].SpanCount() < 3 || !contains(names, "predictor.uc2") {
		t.Errorf("uc2 trace too shallow:\n%s", traces[0].Render())
	}
}

// TestTraceTimingsDeterministicClock pins the tracer to a step clock
// and asserts the recorded durations are exactly the synthetic ones —
// the obs layer never reads the wall clock behind randx's back.
func TestTraceTimingsDeterministicClock(t *testing.T) {
	SetClock(randx.StepClock(time.Unix(1700000000, 0), 10*time.Millisecond))
	defer SetClock(randx.SystemClock)
	s := newTestServer(t)
	rec := getRec(t, s, "/v1/systems")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	traces := s.Tracer().Traces()
	if len(traces) != 1 {
		t.Fatalf("want 1 trace, got %d", len(traces))
	}
	root := traces[0]
	// /v1/systems has no child spans: root takes readings 1 (start) and
	// 2 (end) of the step clock after Observe's own start reading, so
	// the duration is an exact multiple of the step.
	if d := root.Duration(); d <= 0 || d%(10*time.Millisecond) != 0 {
		t.Errorf("duration %v is not a whole number of 10ms steps", d)
	}
}

// TestObsMetricsEndpoint is the acceptance check for GET /v1/metrics:
// per-route latency histograms with p50/p95/p99, status-class
// counters, and the predictor cache counts mirrored in as gauges.
func TestObsMetricsEndpoint(t *testing.T) {
	s := newTestServer(t)
	body := fmt.Sprintf(`{"system":"intel","benchmark":%q,"seed":5}`, firstBench(testDB))
	post(t, s, "/v1/predict/uc1", body)
	post(t, s, "/v1/predict/uc1", body)
	post(t, s, "/v1/predict/uc1", `{"system":"intel"}`) // 400

	rec := getRec(t, s, "/v1/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var snap obs.RegistrySnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("GET /v1/metrics is not a registry snapshot: %v", err)
	}
	h, ok := snap.Histograms["http.latency.POST /v1/predict/uc1"]
	if !ok {
		t.Fatalf("no per-route histogram; histograms = %v", snap.Histograms)
	}
	if h.Count != 3 {
		t.Errorf("route count = %d, want 3", h.Count)
	}
	if !(h.P50MS > 0) || !(h.P95MS >= h.P50MS) || !(h.P99MS >= h.P95MS) {
		t.Errorf("quantiles not ordered/positive: p50=%v p95=%v p99=%v", h.P50MS, h.P95MS, h.P99MS)
	}
	if h.MaxMS < h.P99MS {
		t.Errorf("max %v < p99 %v", h.MaxMS, h.P99MS)
	}
	if snap.Counters["http.status.2xx"] < 2 {
		t.Errorf("2xx counter = %d, want >= 2", snap.Counters["http.status.2xx"])
	}
	if snap.Counters["http.status.4xx"] != 1 {
		t.Errorf("4xx counter = %d, want 1", snap.Counters["http.status.4xx"])
	}
	if snap.Gauges["predictor.cache.hits"] != 1 || snap.Gauges["predictor.cache.misses"] != 1 {
		t.Errorf("mirrored cache gauges = %v hits / %v misses, want 1/1",
			snap.Gauges["predictor.cache.hits"], snap.Gauges["predictor.cache.misses"])
	}
}

func TestTracesEndpoint(t *testing.T) {
	s := New(testCampaign(t), Config{Workers: 2, RequestTimeout: time.Minute})
	body := fmt.Sprintf(`{"system":"intel","benchmark":%q,"seed":9}`, firstBench(testDB))
	post(t, s, "/v1/predict/uc1", body)
	// One request past the ring's capacity evicts the oldest trace.
	for i := 0; i < traceBufferSize; i++ {
		getRec(t, s, "/v1/systems")
	}
	const completed = traceBufferSize + 1
	rec := getRec(t, s, "/v1/traces")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp TracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Completed != completed {
		t.Errorf("completed = %d, want %d", resp.Completed, completed)
	}
	if len(resp.Traces) != traceBufferSize {
		t.Fatalf("buffer of %d should keep %d traces, got %d", traceBufferSize, traceBufferSize, len(resp.Traces))
	}
	for i, tr := range resp.Traces {
		if len(tr) == 0 {
			t.Errorf("trace %d rendered empty", i)
		}
		if strings.Contains(tr, "/v1/predict/uc1") {
			t.Errorf("trace %d is the evicted UC1 request", i)
		}
	}
	// /v1/traces itself is deliberately not instrumented: reading the
	// buffer must not grow it.
	getRec(t, s, "/v1/traces")
	if total, _ := s.Tracer().Completed(); total != completed {
		t.Errorf("GET /v1/traces grew the trace count to %d", total)
	}
}

func TestSlowTraceLogged(t *testing.T) {
	// Each clock reading is one threshold later, so every request
	// spans at least the threshold.
	SetClock(randx.StepClock(time.Unix(1700000000, 0), slowTraceThreshold))
	defer SetClock(randx.SystemClock)
	s := New(testCampaign(t), Config{Workers: 2, RequestTimeout: time.Minute})
	rec := getRec(t, s, "/v1/systems")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if _, slow := s.Tracer().Completed(); slow != 1 {
		t.Errorf("slow trace count = %d, want 1", slow)
	}
}

func TestPprofGating(t *testing.T) {
	off := newTestServer(t)
	if rec := getRec(t, off, "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Errorf("pprof disabled: /debug/pprof/ = %d, want 404", rec.Code)
	}
	if rec := getRec(t, off, "/debug/vars"); rec.Code != http.StatusNotFound {
		t.Errorf("pprof disabled: /debug/vars = %d, want 404", rec.Code)
	}
	on := New(testCampaign(t), Config{Workers: 2, RequestTimeout: time.Minute, EnablePprof: true})
	if rec := getRec(t, on, "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Errorf("pprof enabled: /debug/pprof/ = %d, want 200", rec.Code)
	}
	if rec := getRec(t, on, "/debug/pprof/cmdline"); rec.Code != http.StatusOK {
		t.Errorf("pprof enabled: /debug/pprof/cmdline = %d, want 200", rec.Code)
	}
	// /v1/metrics is the one metrics endpoint: pprof does not bring
	// the expvar set back.
	if rec := getRec(t, on, "/debug/vars"); rec.Code != http.StatusNotFound {
		t.Errorf("pprof enabled: /debug/vars = %d, want 404", rec.Code)
	}
}
