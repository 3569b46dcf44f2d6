package cluster

import (
	"context"
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

// TestFrontendErrorsCarryCode checks that the router's own errors have
// the replicas' error shape: a missing key, a body that does not decode
// and a tier with no live replica each answer {"error":…,"code":N}
// with code equal to the status.
func TestFrontendErrorsCarryCode(t *testing.T) {
	r, backs := testRouter(t, 1, nil)
	f := NewFrontend(r, nil)
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		f.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict/uc1", strings.NewReader(body)))
		return rec
	}
	check := func(name string, rec *httptest.ResponseRecorder, status int) {
		t.Helper()
		if rec.Code != status {
			t.Fatalf("%s: status %d, want %d (%s)", name, rec.Code, status, rec.Body)
		}
		var body struct {
			Error string `json:"error"`
			Code  *int   `json:"code"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: body %q: %v", name, rec.Body, err)
		}
		if body.Error == "" || body.Code == nil || *body.Code != status {
			t.Errorf("%s: body %s, want an error with code %d", name, rec.Body, status)
		}
	}
	check("missing key", post(`{"benchmark":"npb/bt"}`), http.StatusBadRequest)
	check("bad body", post(`{"system":`), http.StatusBadRequest)

	backs[0].set(false, "down", true)
	for i := 0; i < 3; i++ {
		r.ProbeAll(context.Background())
	}
	check("no live replica", post(`{"system":"intel","benchmark":"npb/bt"}`), http.StatusServiceUnavailable)
}
