package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/measure"
	"repro/internal/modelstore"
	"repro/internal/obs"
)

// Config tunes the server. The zero value selects sensible defaults.
type Config struct {
	// Addr is the listen address (default ":8080").
	Addr string
	// ReplicaID is this server's shard identity in a multi-replica
	// deployment (varserve's -replica flag): the ID the cluster router
	// hashes onto its ring. Surfaced in /readyz and /v1/status so the
	// router (and humans) can confirm which replica answered. Empty
	// for single-instance serving.
	ReplicaID string
	// Workers bounds concurrent predictions (default GOMAXPROCS). A
	// request that cannot acquire a worker before its deadline gets 503.
	Workers int
	// RequestTimeout bounds each prediction (default 30s). A request
	// whose prediction outlives it gets 504.
	RequestTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (varserve's
	// -pprof flag). Off by default: profiling endpoints expose heap and
	// stack contents and belong behind an explicit opt-in.
	EnablePprof bool
	// ModelRegistry, when set, attaches a persistent model store to the
	// predictor (varserve's -modeldir flag): fitted models are persisted
	// and a restarted process loads them instead of refitting, so a warm
	// store serves its first prediction with no fit on the hot path.
	ModelRegistry *modelstore.Registry
	// Drift tunes the streaming-ingest drift detector and background
	// refit loop behind POST /v1/measurements (zero value = defaults).
	Drift drift.Config
}

const (
	// drainTimeout bounds graceful shutdown.
	drainTimeout = 10 * time.Second
	// traceBufferSize bounds the in-memory ring of completed request
	// traces served by GET /v1/traces.
	traceBufferSize = 256
	// slowTraceThreshold is the slow-trace log's bar: requests at or
	// above it are rendered to the process log as span trees.
	slowTraceThreshold = time.Second
)

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	return c
}

// Server is the varserve HTTP prediction service: routing, the bounded
// worker pool, metrics, and the cached predictor.
type Server struct {
	cfg    Config
	pred   *core.Predictor
	tracer *obs.Tracer
	drift  *drift.Manager
	sem    chan struct{}
	ready  atomic.Bool
	mux    *http.ServeMux
	ln     net.Listener

	// metrics is the server's obs registry, served by GET /v1/metrics.
	// It is owned by the instance rather than published process-wide,
	// so several servers in one process never collide on names.
	// inFlight and saturated are held so the request path does no
	// registry lookup for them; saturated counts requests that found
	// the worker pool full on arrival (whether they eventually got a
	// slot or were shed).
	metrics   *obs.Registry
	inFlight  *obs.Gauge
	saturated *obs.Counter
}

// New builds a server over a loaded measurement database.
func New(db *measure.Database, cfg Config) *Server {
	s := &Server{
		cfg:     cfg.withDefaults(),
		pred:    core.NewPredictor(db),
		metrics: obs.NewRegistry(),
	}
	s.inFlight = s.metrics.Gauge("http.in_flight")
	s.saturated = s.metrics.Counter("http.saturated")
	if s.cfg.ModelRegistry != nil {
		s.pred.SetModelStore(s.cfg.ModelRegistry)
	}
	s.tracer = obs.NewTracer(obs.Config{
		// Route through the package clock variable (not its current
		// value) so SetClock keeps traces deterministic in tests.
		Clock:         func() time.Time { return clock() },
		BufferSize:    traceBufferSize,
		SlowThreshold: slowTraceThreshold,
	})
	s.drift = drift.NewManager(s.cfg.Drift, drift.Hooks{
		// Route through the package clock variable like the tracer.
		Clock:    func() time.Time { return clock() },
		Tracer:   s.tracer,
		Baseline: s.driftBaseline,
		Refit:    s.refitCell,
	})
	s.sem = make(chan struct{}, s.cfg.Workers)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/measurements", s.instrument("POST /v1/measurements", s.handleMeasurements))
	s.mux.HandleFunc("POST /v1/predict/uc1", s.instrument("POST /v1/predict/uc1", s.handleUC1))
	s.mux.HandleFunc("POST /v1/predict/uc2", s.instrument("POST /v1/predict/uc2", s.handleUC2))
	s.mux.HandleFunc("POST /v1/predict/uc1/batch", s.instrument("POST /v1/predict/uc1/batch", s.handleUC1Batch))
	s.mux.HandleFunc("GET /v1/systems", s.instrument("GET /v1/systems", s.handleSystems))
	s.mux.HandleFunc("GET /v1/status", s.instrument("GET /v1/status", s.handleStatus))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/metrics", s.instrument("GET /v1/metrics", s.handleObsMetrics))
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
	if s.cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.ready.Store(true)
	return s
}

// Handler exposes the routing table (driven in process by tests and
// by the drift experiment in cmd/experiments).
func (s *Server) Handler() http.Handler { return s.mux }

// Predictor exposes the cached predictor (warmup, cache statistics).
func (s *Server) Predictor() *core.Predictor { return s.pred }

// Tracer exposes the request tracer (trace buffer, slow-trace stats).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Drift exposes the streaming-ingest drift manager (cell snapshots;
// Wait, the deterministic test barrier for background refits).
func (s *Server) Drift() *drift.Manager { return s.drift }

// Listen binds the configured address. Addr reports the bound address
// afterwards (useful with ":0").
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	return nil
}

// Addr returns the bound listen address ("" before Listen).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve runs the HTTP server until ctx is canceled, then drains
// gracefully: readiness flips to 503 (so load balancers stop routing)
// and in-flight requests get drainTimeout to finish.
func (s *Server) Serve(ctx context.Context) error {
	if s.ln == nil {
		if err := s.Listen(); err != nil {
			return err
		}
	}
	hs := &http.Server{Handler: s.mux}
	errc := make(chan error, 1)
	//lint:allow goroutinecheck process-lifetime listener goroutine joined via errc/Shutdown, not request work for the pool
	go func() { errc <- hs.Serve(s.ln) }()
	select {
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	s.ready.Store(false)
	//lint:allow ctxflow drain deadline must outlive the already-canceled run ctx; Background is the correct root for shutdown
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	return nil
}

// instrument wraps a handler with in-flight, latency, and status
// accounting, and roots a trace for the request: the handler (and the
// predictor underneath it) hang child spans off the request context,
// so every /v1/* request yields a handler -> predictor -> model span
// tree in the trace buffer.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := clock()
		s.inFlight.Add(1)
		ctx, span := s.tracer.Start(r.Context(), endpoint)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r.WithContext(ctx))
		span.SetAttr("status", strconv.Itoa(sw.status))
		span.End()
		s.inFlight.Add(-1)
		s.observe(endpoint, sw.status, clock.Since(start))
	}
}

// statusWriter captures the response status for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}
