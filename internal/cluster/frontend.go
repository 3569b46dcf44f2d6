package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/modelstore"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Frontend is the router's HTTP face: it derives the dataset key from
// each request body, routes through the Router, and relays the owning
// replica's response verbatim. It exposes the same /v1 surface as a
// single varserve plus /v1/cluster/status, so existing clients (and
// perfbench) point at the router unchanged.
type Frontend struct {
	router  *Router
	metrics *obs.Registry
	mux     *http.ServeMux
}

// NewFrontend builds the HTTP handler for the router. metrics may be
// nil.
func NewFrontend(router *Router, metrics *obs.Registry) *Frontend {
	f := &Frontend{router: router, metrics: metrics, mux: http.NewServeMux()}
	f.mux.HandleFunc("POST /v1/predict/uc1", f.forwardKeyed(keyUC1))
	f.mux.HandleFunc("POST /v1/predict/uc1/batch", f.forwardKeyed(keyUC1))
	f.mux.HandleFunc("POST /v1/predict/uc2", f.forwardKeyed(keyUC2))
	// Ingest goes to the system's UC1 cell owner, so the replica
	// accumulating a system's drift windows is the one serving its
	// predictions.
	f.mux.HandleFunc("POST /v1/measurements", f.forwardKeyed(keyUC1))
	f.mux.HandleFunc("GET /v1/systems", f.forwardUnkeyed)
	f.mux.HandleFunc("GET /v1/cluster/status", f.handleClusterStatus)
	f.mux.HandleFunc("GET /v1/metrics", f.handleMetrics)
	f.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	f.mux.HandleFunc("GET /readyz", f.handleReadyz)
	return f
}

// ServeHTTP implements http.Handler.
func (f *Frontend) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.mux.ServeHTTP(w, r) }

// keyedBody is the superset of fields the frontend needs from any
// keyed request body to derive its routing key. Everything else passes
// through opaque.
type keyedBody struct {
	System string `json:"system"`
	Source string `json:"source"`
	Target string `json:"target"`
}

// keyedFields are keyedBody's JSON field names, in readKeyedBody's
// order.
var keyedFields = []string{"system", "source", "target"}

// decodeKeyedBody reads a body's routing fields in one pass, falling
// back to json.Unmarshal for a body the one-pass reader declines.
func decodeKeyedBody(body []byte, kb *keyedBody) error {
	return wire.Decode(body, kb, readKeyedBody)
}

// readKeyedBody reads the top-level system, source and target of a
// body and skips the rest, still checking its grammar.
func readKeyedBody(r *wire.Reader, kb *keyedBody) {
	var seen uint64
	r.Object(func(key []byte) bool {
		switch r.Field(key, keyedFields, &seen) {
		case 0:
			kb.System = r.Text()
		case 1:
			kb.Source = r.Text()
		case 2:
			kb.Target = r.Text()
		default:
			return false
		}
		return true
	})
}

// keyUC1 routes UC1 predictions (single and batch) by their system's
// dataset cell.
func keyUC1(b keyedBody) (string, error) {
	if b.System == "" {
		return "", fmt.Errorf("system is required")
	}
	return modelstore.DatasetKey(1, b.System, ""), nil
}

// keyUC2 routes cross-system predictions by the (source, target) cell.
func keyUC2(b keyedBody) (string, error) {
	if b.Source == "" || b.Target == "" {
		return "", fmt.Errorf("source and target are required")
	}
	return modelstore.DatasetKey(2, b.Source, b.Target), nil
}

// forwardKeyed builds a handler that extracts the routing key with
// derive and relays through the router. Bodies are capped at
// wire.MaxBodyBytes, the replicas' own cap: a larger one gets the
// replicas' structured 413 here instead of being buffered whole and
// forwarded to be refused there.
func (f *Frontend) forwardKeyed(derive func(keyedBody) (string, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Size the buffer from Content-Length (trusted only up to the
		// cap) so a body is read with one allocation, not a doubling
		// series.
		var buf bytes.Buffer
		if r.ContentLength > 0 && r.ContentLength <= wire.MaxBodyBytes {
			buf.Grow(int(r.ContentLength) + bytes.MinRead)
		}
		_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes))
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				writeError(w, http.StatusRequestEntityTooLarge, wire.TooLarge(mbe.Limit))
				return
			}
			writeError(w, http.StatusBadRequest, "read body: "+err.Error())
			return
		}
		body := buf.Bytes()
		var kb keyedBody
		if err := decodeKeyedBody(body, &kb); err != nil {
			writeError(w, http.StatusBadRequest, "decode body: "+err.Error())
			return
		}
		key, err := derive(kb)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		f.relay(w, r, Request{Method: r.Method, Path: r.URL.Path, Key: key, Body: body})
	}
}

// forwardUnkeyed relays requests with no dataset identity (they take
// the replicas in sorted ID order).
func (f *Frontend) forwardUnkeyed(w http.ResponseWriter, r *http.Request) {
	f.relay(w, r, Request{Method: r.Method, Path: r.URL.Path})
}

// relay routes through the router and copies the replica's answer out.
func (f *Frontend) relay(w http.ResponseWriter, r *http.Request, req Request) {
	resp, err := f.router.Do(r.Context(), req)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if resp.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(resp.RetryAfter/time.Second)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.Status)
	_, _ = w.Write(resp.Body)
}

// handleClusterStatus renders the router's own posture.
func (f *Frontend) handleClusterStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, f.router.Snapshot())
}

// handleMetrics renders the router's metric registry.
func (f *Frontend) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, f.metrics.Snapshot())
}

// handleReadyz: the tier is ready while any replica is routable.
func (f *Frontend) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	st := f.router.Snapshot()
	alive := 0
	for _, rep := range st.Replicas {
		if rep.State != Down.String() {
			alive++
		}
	}
	if alive == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "no live replicas"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "replicas_live": alive})
}

// writeJSON and writeError mirror the serve package's helpers (the
// frontend keeps zero dependencies on internal/serve so the sim can
// import cluster without pulling the full server).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is the replicas' error body (serve.ErrorResponse), field
// for field, so a client reads the same shape, with code equal to the
// status, from either hop.
type errorBody struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg, Code: status})
}
