package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/internal/drift"
	"repro/internal/measure"
	"repro/internal/report"
	"repro/internal/serve"
)

// The ext7 drifted stream: every cell of the first system gets its
// campaign runs back with wall times ×driftScale (disjoint support, KS
// 1 against the baseline), in batches of driftBatchSize runs.
const (
	driftScale        = 2.0
	driftBatches      = 12
	driftBatchSize    = 16
	driftProbeBatches = 2
	// driftControlKS is the no-refit control's KS threshold: KS is
	// bounded by 1, so the control scores every window but never trips.
	driftControlKS = 2
)

// ext7Drift is the streaming-drift experiment: two servers over the
// same database are fed the same drifted measurement stream through
// POST /v1/measurements. The treatment runs the live refit loop with
// the default detector; the control observes the drift but never
// reacts. After the stream, both are probed with fresh drifted
// batches, and the report compares detection latency and the
// detectors' residual KS.
func ext7Drift(db *measure.Database, opts report.Options) (*report.Result, error) {
	return driftExperiment(db, drift.Config{Seed: opts.Seed}, driftBatches, driftProbeBatches)
}

// driftExperiment runs ext7 with the treatment detector cfg, batches
// drifted batches per cell and probes probe batches after the refits.
// Both servers are driven in process through their handlers: the
// ingest path is the experiment variable, a socket is not.
func driftExperiment(db *measure.Database, cfg drift.Config, batches, probes int) (*report.Result, error) {
	if db == nil || len(db.Systems) == 0 {
		return nil, fmt.Errorf("ext7: no database")
	}
	sd := &db.Systems[0]
	controlCfg := cfg
	controlCfg.KSThreshold = driftControlKS
	treatment := serve.New(db, serve.Config{Drift: cfg})
	control := serve.New(db, serve.Config{Drift: controlCfg})

	// Phase 1: the drifted stream, to both servers in the same order.
	tripped := make([]int, len(sd.Benchmarks))
	for i := range sd.Benchmarks {
		bench := &sd.Benchmarks[i]
		for b := 0; b < batches; b++ {
			runs := driftedRuns(bench, b*driftBatchSize)
			tr, err := ingest(treatment, sd.SystemName, bench.Workload.ID(), runs)
			if err != nil {
				return nil, err
			}
			if _, err := ingest(control, sd.SystemName, bench.Workload.ID(), runs); err != nil {
				return nil, err
			}
			if tripped[i] == 0 && tr.Drift != nil && tr.Drift.Tripped {
				tripped[i] = b + 1
			}
		}
	}
	// Phase 2: probe both detectors with fresh drifted batches. The
	// treatment's baseline now holds the merged windows; the control's
	// is still the original campaign.
	finalKS := make([]float64, len(sd.Benchmarks))
	controlKS := make([]float64, len(sd.Benchmarks))
	for i := range sd.Benchmarks {
		bench := &sd.Benchmarks[i]
		for b := batches; b < batches+probes; b++ {
			runs := driftedRuns(bench, b*driftBatchSize)
			for _, tgt := range []struct {
				srv *serve.Server
				ks  *float64
			}{{treatment, &finalKS[i]}, {control, &controlKS[i]}} {
				mr, err := ingest(tgt.srv, sd.SystemName, bench.Workload.ID(), runs)
				if err != nil {
					return nil, err
				}
				if mr.Drift != nil {
					*tgt.ks = mr.Drift.KS
				}
			}
		}
	}

	byCell := map[string]drift.CellStatus{}
	var refitOK, refitFail, refitShed int
	for _, cs := range treatment.Drift().Snapshot() {
		byCell[cs.Cell] = cs
		refitOK += cs.RefitOK
		refitFail += cs.RefitFail
		refitShed += cs.RefitShed
	}
	rows := [][]string{{"cell", "tripBatch", "detectionRuns", "refitOK", "refitFail", "residualKS", "controlKS"}}
	var meanTrip, meanFinal, meanControl float64
	nTripped := 0
	for i := range sd.Benchmarks {
		cell := sd.SystemName + "/" + sd.Benchmarks[i].Workload.ID()
		cs := byCell[cell]
		rows = append(rows, []string{
			cell, fmt.Sprint(tripped[i]), fmt.Sprint(tripped[i] * driftBatchSize),
			fmt.Sprint(cs.RefitOK), fmt.Sprint(cs.RefitFail),
			fmt.Sprintf("%.3f", finalKS[i]), fmt.Sprintf("%.3f", controlKS[i]),
		})
		if tripped[i] > 0 {
			nTripped++
			meanTrip += float64(tripped[i])
		}
		meanFinal += finalKS[i]
		meanControl += controlKS[i]
	}
	if nTripped > 0 {
		meanTrip /= float64(nTripped)
	}
	if n := float64(len(sd.Benchmarks)); n > 0 {
		meanFinal /= n
		meanControl /= n
	}

	var text strings.Builder
	fmt.Fprintf(&text, "system %s, %d cells: %d batches of %d runs per cell at x%.1f wall time, then %d probe batches\n",
		sd.SystemName, len(sd.Benchmarks), batches, driftBatchSize, driftScale, probes)
	fmt.Fprintf(&text, "detection: %d of %d cells tripped, mean %.1f batches to trip\n", nTripped, len(sd.Benchmarks), meanTrip)
	fmt.Fprintf(&text, "refits: %d ok, %d failed, %d shed\n", refitOK, refitFail, refitShed)
	fmt.Fprintf(&text, "residual KS after refit: %.3f (no-refit control: %.3f)\n", meanFinal, meanControl)
	return &report.Result{
		ID:    "ext7",
		Title: "Extension 7: streaming drift, detection latency and residual KS after refit",
		Text:  text.String(),
		Rows:  rows,
		Headlines: []report.Headline{
			{Name: "mean batches to trip", Measured: meanTrip},
			{Name: fmt.Sprintf("mean residual KS after refit (no-refit control %.3f)", meanControl), Measured: meanFinal},
		},
	}, nil
}

// driftedRuns builds one batch of wire runs for a cell by cycling its
// campaign runs from offset (so later batches continue the stream
// rather than replaying it) with wall times scaled by driftScale. The
// counters pass through untouched, so every run is schema-valid: the
// drift is purely in the run-time distribution.
func driftedRuns(bench *measure.BenchmarkData, offset int) []serve.ProbeRun {
	out := make([]serve.ProbeRun, driftBatchSize)
	for i := range out {
		r := bench.Runs[(offset+i)%len(bench.Runs)]
		out[i] = serve.ProbeRun{Seconds: r.Seconds * driftScale, Metrics: r.Metrics}
	}
	return out
}

// ingest posts one measurement batch to srv's handler, waits for any
// refit it scheduled, and decodes the response; anything but 200 is
// an error. Waiting lets each refit land before the next batch: a
// background refit racing the stream would make refit counts and
// residual KS vary from run to run.
func ingest(srv *serve.Server, system, benchmark string, runs []serve.ProbeRun) (*serve.MeasurementsResponse, error) {
	body, err := json.Marshal(serve.MeasurementsRequest{System: system, Benchmark: benchmark, Runs: runs})
	if err != nil {
		return nil, err
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/measurements", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	srv.Drift().Wait()
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("ext7: POST /v1/measurements %s/%s: %d %s", system, benchmark, rec.Code, rec.Body)
	}
	var mr serve.MeasurementsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil {
		return nil, fmt.Errorf("ext7: decode ingest response: %w", err)
	}
	return &mr, nil
}
