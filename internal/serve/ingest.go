package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/perfsim"
)

// maxIngestRuns bounds one measurement batch so a single POST cannot
// flood a cell's window (and the validator) in one call; streams ship
// more data as more batches.
const maxIngestRuns = 1024

// handleMeasurements is POST /v1/measurements: validate the batch
// through the quarantine, append survivors to the cell's drift
// window, and run the drift evaluation — scheduling a background
// refit when the cell trips. The handler itself never fits anything:
// ingest latency is validation plus two ECDF passes, regardless of
// what the refit loop is doing.
func (s *Server) handleMeasurements(w http.ResponseWriter, r *http.Request) {
	start := clock()
	body, release, err := readBody(w, r)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	var req MeasurementsRequest
	err = decodeMeasurements(body, &req)
	release()
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad JSON: %v", err))
		return
	}
	if req.System == "" || req.Benchmark == "" {
		writeError(w, http.StatusBadRequest, `"system" and "benchmark" are required`)
		return
	}
	if len(req.Runs) == 0 {
		writeError(w, http.StatusBadRequest, `"runs" must contain at least one run`)
		return
	}
	if len(req.Runs) > maxIngestRuns {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d runs exceeds the limit of %d", len(req.Runs), maxIngestRuns))
		return
	}
	sd, ok := s.pred.DB().System(req.System)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown system %q", req.System))
		return
	}
	if _, ok := sd.Find(req.Benchmark); !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown benchmark %q on system %q", req.Benchmark, req.System))
		return
	}
	key := drift.Key{System: req.System, Benchmark: req.Benchmark}
	res, err := s.drift.Ingest(r.Context(), key, toRuns(req.Runs), len(sd.MetricNames))
	if err != nil {
		// The cell exists in the database (checked above), so this is
		// an internal inconsistency, not a caller mistake.
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := &MeasurementsResponse{
		System:      req.System,
		Benchmark:   req.Benchmark,
		Accepted:    res.Report.Kept,
		Quarantined: res.Report.Quarantined,
		Repaired:    res.Report.Repaired,
		ByClass:     res.Report.ByClass,
		WindowFill:  res.WindowFill,
	}
	if res.Evaluated {
		resp.Drift = &DriftEvalJSON{
			KS:             res.KS,
			W1:             res.W1,
			PValue:         res.PValue,
			Breaches:       res.Breaches,
			Tripped:        res.Tripped,
			RefitScheduled: res.RefitScheduled,
		}
	}
	resp.ElapsedMS = float64(clock.Since(start)) / float64(time.Millisecond)
	if res.Report.Kept == 0 {
		// Fully-unusable batch: same structured body so the client sees
		// exactly what was quarantined and why, but a 422 status.
		resp.Error = "every run in the batch was quarantined"
		writeJSON(w, http.StatusUnprocessableEntity, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// driftBaseline supplies a cell's training-time distribution: the
// benchmark's measurement runs in the current database snapshot.
func (s *Server) driftBaseline(key drift.Key) ([]perfsim.Run, error) {
	sd, ok := s.pred.DB().System(key.System)
	if !ok {
		return nil, fmt.Errorf("%w %q", core.ErrUnknownSystem, key.System)
	}
	b, ok := sd.Find(key.Benchmark)
	if !ok {
		return nil, fmt.Errorf("%w %q on system %q", core.ErrUnknownBenchmark, key.Benchmark, key.System)
	}
	return b.Runs, nil
}

// refitCell is the manager's refit hook: swap the merged training set
// into the database copy-on-write, then strictly refit the system's
// resident models under their breakers. Runs on the drift manager's
// bounded background pool, never on a request goroutine; a failure
// trips the fit breaker, so requests degrade to the stale model (then
// kNN) exactly like any other fit failure, and the manager retries
// after jittered backoff.
func (s *Server) refitCell(ctx context.Context, key drift.Key, merged []perfsim.Run) error {
	if err := s.pred.SetBenchmarkRuns(key.System, key.Benchmark, merged); err != nil {
		return err
	}
	return s.pred.RefitSystem(ctx, key.System)
}
