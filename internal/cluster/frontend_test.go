package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/modelstore"
	"repro/internal/obs"
)

// TestFrontendMetricsAndIngestKey drives the router's HTTP face: a
// forwarded UC1 request shows up in GET /v1/metrics as an
// obs.RegistrySnapshot, the old GET /metrics path is gone, and an
// ingest batch routes by the same key as a UC1 read of its system.
func TestFrontendMetricsAndIngestKey(t *testing.T) {
	reg := obs.NewRegistry()
	r, backs := testRouter(t, 2, func(cfg *Config) { cfg.Metrics = reg })
	f := NewFrontend(r, reg)
	do := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		f.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}

	if rec := do(http.MethodPost, "/v1/predict/uc1", `{"system":"intel","benchmark":"npb/bt"}`); rec.Code != http.StatusOK {
		t.Fatalf("forwarded UC1: %d %s", rec.Code, rec.Body)
	}
	rec := do(http.MethodGet, "/v1/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/metrics: %d", rec.Code)
	}
	var snap obs.RegistrySnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("GET /v1/metrics is not a registry snapshot: %v", err)
	}
	if snap.Counters["cluster.requests"] != 1 {
		t.Errorf("cluster.requests = %d, want 1 (counters %v)", snap.Counters["cluster.requests"], snap.Counters)
	}
	if rec := do(http.MethodGet, "/metrics", ""); rec.Code != http.StatusNotFound {
		t.Errorf("GET /metrics = %d, want 404", rec.Code)
	}

	if rec := do(http.MethodPost, "/v1/measurements", `{"system":"intel","benchmark":"npb/bt","runs":[]}`); rec.Code != http.StatusOK {
		t.Fatalf("forwarded ingest: %d %s", rec.Code, rec.Body)
	}
	want := modelstore.DatasetKey(1, "intel", "")
	var total int64
	for _, b := range backs {
		if c, ok := b.served.Load(want); ok {
			total += c.(*atomic.Int64).Load()
		}
	}
	if total != 2 {
		t.Errorf("requests served under the UC1 key %q = %d, want 2 (read + ingest)", want, total)
	}
	if rec := do(http.MethodPost, "/v1/measurements", `{"benchmark":"npb/bt"}`); rec.Code != http.StatusBadRequest {
		t.Errorf("ingest without system = %d, want 400", rec.Code)
	}
}
