package serve

import (
	"encoding/json"
	"net/http"
	"time"
)

// observe records one completed request in the server's obs registry:
// the per-route latency histogram (fixed log-space bins — the paper's
// histogram representation pointed at the server itself) and the
// 2xx/4xx/5xx class counters.
func (s *Server) observe(endpoint string, status int, d time.Duration) {
	s.metrics.Histogram("http.latency." + endpoint).Observe(d)
	switch {
	case status >= 500:
		s.metrics.Counter("http.status.5xx").Inc()
	case status >= 400:
		s.metrics.Counter("http.status.4xx").Inc()
	default:
		s.metrics.Counter("http.status.2xx").Inc()
	}
}

// handleObsMetrics serves the obs registry, the replica's one metrics
// endpoint: every counter, gauge, and latency histogram snapshot
// (per-route p50/p90/p95/p99), with the predictor cache, model store
// and drift cells mirrored in at scrape time. Mirrors use Gauge.Set:
// it is idempotent, so concurrent scrapes cannot double-apply a
// delta or step a value backwards.
func (s *Server) handleObsMetrics(w http.ResponseWriter, _ *http.Request) {
	cs := s.pred.CacheStats()
	s.metrics.Gauge("predictor.cache.hits").Set(float64(cs.Hits))
	s.metrics.Gauge("predictor.cache.misses").Set(float64(cs.Misses))
	if reg := s.pred.ModelStore(); reg != nil {
		ss := reg.Stats()
		s.metrics.Gauge("modelstore.disk_hits").Set(float64(ss.DiskHits))
		s.metrics.Gauge("modelstore.misses").Set(float64(ss.Misses))
		s.metrics.Gauge("modelstore.refreshes").Set(float64(ss.Refreshes))
		s.metrics.Gauge("modelstore.load_errors").Set(float64(ss.LoadErrors))
		s.metrics.Gauge("modelstore.save_errors").Set(float64(ss.SaveErrors))
	}
	if cells := s.drift.Snapshot(); len(cells) > 0 {
		now := clock()
		drifted := 0
		for i := range cells {
			c := &cells[i]
			if c.Tripped {
				drifted++
			}
			s.metrics.Gauge("drift.ks." + c.Cell).Set(c.KS)
			s.metrics.Gauge("drift.w1." + c.Cell).Set(c.W1)
			s.metrics.Gauge("drift.window_fill." + c.Cell).Set(float64(c.WindowFill))
			s.metrics.Gauge("drift.accepted." + c.Cell).Set(float64(c.Accepted))
			s.metrics.Gauge("drift.quarantined." + c.Cell).Set(float64(c.Quarantined))
			s.metrics.Gauge("drift.refit_ok." + c.Cell).Set(float64(c.RefitOK))
			s.metrics.Gauge("drift.refit_fail." + c.Cell).Set(float64(c.RefitFail))
			s.metrics.Gauge("drift.refit_shed." + c.Cell).Set(float64(c.RefitShed))
			age := -1.0 // "never refitted" sentinel
			if c.HasRefit {
				age = float64(now.Sub(c.LastRefit)) / float64(time.Millisecond)
			}
			s.metrics.Gauge("drift.last_refit_age_ms." + c.Cell).Set(age)
		}
		s.metrics.Gauge("drift.cells").Set(float64(len(cells)))
		s.metrics.Gauge("drift.drifted").Set(float64(drifted))
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.metrics.Snapshot())
}

// handleTraces serves the tracer's ring buffer of completed traces,
// oldest first, rendered as indented text trees.
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	total, slow := s.tracer.Completed()
	resp := TracesResponse{Completed: total, Slow: slow}
	for _, root := range s.tracer.Traces() {
		resp.Traces = append(resp.Traces, root.Render())
	}
	writeJSON(w, http.StatusOK, resp)
}
