package serve

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"

	"repro/internal/perfsim"
)

// ProbeRun is one caller-supplied probe execution: wall time plus raw
// perf-counter totals aligned with the system's metric schema (exactly
// what `perf stat` emits, see GET /v1/systems for the metric names).
type ProbeRun struct {
	Seconds float64   `json:"seconds"`
	Metrics []float64 `json:"metrics"`
}

// PredictRequest is the JSON body of both prediction endpoints. Exactly
// one of Benchmark (predict a database benchmark, holding it out of
// training, with ground truth attached) or ProbeRuns (predict an unseen
// application from its raw probe profile) must be set.
type PredictRequest struct {
	// System names the UC1 system.
	System string `json:"system,omitempty"`
	// Source and Target name the UC2 system pair.
	Source string `json:"source,omitempty"`
	Target string `json:"target,omitempty"`

	// Benchmark is a "suite/name" ID from the measurement database.
	Benchmark string `json:"benchmark,omitempty"`
	// ProbeRuns is a raw probe profile of an application not in the
	// database. For UC2 it must be accompanied by SourceRelTimes.
	ProbeRuns []ProbeRun `json:"probe_runs,omitempty"`
	// SourceRelTimes is the application's measured relative-time sample
	// on the source system (UC2 raw-profile requests only).
	SourceRelTimes []float64 `json:"source_rel_times,omitempty"`

	// Model is knn (default) | rf | xgboost | ridge.
	Model string `json:"model,omitempty"`
	// Representation is pearsonrnd (default) | histogram | pymaxent | quantile.
	Representation string `json:"representation,omitempty"`
	// Samples is the UC1 profile size (default 10, the paper's setting).
	Samples int `json:"samples,omitempty"`
	// Bins is the histogram representation's bin count (0 = default 50,
	// at most maxBins).
	Bins int `json:"bins,omitempty"`
	// Seed drives decoding and model stochasticity (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// N is the number of samples to decode for raw-profile requests
	// (default: the database's runs-per-benchmark; at most maxSamples).
	N int `json:"n,omitempty"`
}

// BatchPredictRequest is the JSON body of POST /v1/predict/uc1/batch:
// one shared model/representation configuration applied to many raw
// probe profiles at once. All profiles are scored by the same cached
// deployment model, and the predictions fan out across the server's
// worker pool.
type BatchPredictRequest struct {
	// System names the UC1 system.
	System string `json:"system"`
	// Profiles holds one raw probe profile per application to predict.
	Profiles [][]ProbeRun `json:"profiles"`

	// Model is knn (default) | rf | xgboost | ridge.
	Model string `json:"model,omitempty"`
	// Representation is pearsonrnd (default) | histogram | pymaxent | quantile.
	Representation string `json:"representation,omitempty"`
	// Samples is the UC1 profile size (default 10, the paper's setting).
	Samples int `json:"samples,omitempty"`
	// Bins is the histogram representation's bin count (0 = default 50,
	// at most maxBins).
	Bins int `json:"bins,omitempty"`
	// Seed drives decoding and model stochasticity (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// N is the number of samples to decode per profile (default: the
	// database's runs-per-benchmark; at most maxSamples).
	N int `json:"n,omitempty"`
}

// BatchResultJSON summarizes one profile's predicted distribution.
type BatchResultJSON struct {
	N         int            `json:"n"`
	Quantiles Quantiles      `json:"quantiles"`
	Histogram *HistogramJSON `json:"histogram"`
	Moments   MomentsJSON    `json:"moments"`
	Modes     int            `json:"modes"`
}

// BatchPredictResponse is the JSON body of a successful batch
// prediction; Results is aligned with the request's Profiles.
type BatchPredictResponse struct {
	UseCase        int               `json:"use_case"`
	System         string            `json:"system"`
	Model          string            `json:"model"`
	Representation string            `json:"representation"`
	Seed           uint64            `json:"seed"`
	Count          int               `json:"count"`
	Results        []BatchResultJSON `json:"results"`
	Cache          string            `json:"cache"`
	ElapsedMS      float64           `json:"elapsed_ms"`

	// Degraded and Fallback mirror PredictResponse: the whole batch is
	// served by one model, so they apply to every result.
	Degraded bool   `json:"degraded,omitempty"`
	Fallback string `json:"fallback,omitempty"`
}

// Quantiles maps a quantile's name ("p1" … "p99") to its value. It
// encodes to the bytes encoding/json writes for the same map (keys
// sorted, floats in encoding/json's format) without the map encoder's
// reflection, which costs a dozen allocations per response.
type Quantiles map[string]float64

// MarshalJSON implements json.Marshaler. Maps with more than 16 keys,
// keys that need escaping, or non-finite values take encoding/json's
// own path.
func (q Quantiles) MarshalJSON() ([]byte, error) {
	if q == nil {
		return []byte("null"), nil
	}
	var arr [16]string
	keys := arr[:0]
	for k, v := range q {
		if len(keys) == len(arr) || !plainKey(k) || math.IsNaN(v) || math.IsInf(v, 0) {
			return json.Marshal(map[string]float64(q))
		}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b := make([]byte, 0, 2+32*len(keys))
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, k...)
		b = append(b, '"', ':')
		b = appendJSONFloat(b, q[k])
	}
	return append(b, '}'), nil
}

// plainKey reports whether k encodes as a JSON string without escapes.
func plainKey(k string) bool {
	for i := 0; i < len(k); i++ {
		if c := k[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendJSONFloat appends a finite f as encoding/json formats a
// float64: the shortest representation, in exponent form below 1e-6
// or from 1e21 on, with a one-digit negative exponent unpadded.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// HistogramJSON is a fixed-support histogram of the predicted sample.
type HistogramJSON struct {
	Lo       float64   `json:"lo"`
	Hi       float64   `json:"hi"`
	BinWidth float64   `json:"bin_width"`
	Density  []float64 `json:"density"`
}

// MomentsJSON carries the first four moments of a sample.
type MomentsJSON struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Skew float64 `json:"skew"`
	Kurt float64 `json:"kurt"`
}

// MeasuredJSON summarizes the ground-truth sample when one exists.
type MeasuredJSON struct {
	N       int         `json:"n"`
	Moments MomentsJSON `json:"moments"`
	Modes   int         `json:"modes"`
}

// PredictResponse is the JSON body of a successful prediction.
type PredictResponse struct {
	UseCase        int    `json:"use_case"`
	System         string `json:"system,omitempty"`
	Source         string `json:"source,omitempty"`
	Target         string `json:"target,omitempty"`
	Benchmark      string `json:"benchmark,omitempty"`
	Model          string `json:"model"`
	Representation string `json:"representation"`
	Seed           uint64 `json:"seed"`
	N              int    `json:"n"`

	Quantiles Quantiles      `json:"quantiles"`
	Histogram *HistogramJSON `json:"histogram"`
	Moments   MomentsJSON    `json:"moments"`
	Modes     int            `json:"modes"`

	// KSVsMeasured and W1VsMeasured score the prediction against the
	// measured ground truth; present only for Benchmark requests.
	KSVsMeasured *float64      `json:"ks_vs_measured,omitempty"`
	W1VsMeasured *float64      `json:"w1_vs_measured,omitempty"`
	Measured     *MeasuredJSON `json:"measured,omitempty"`

	// Cache is "hit" when the fitted model was reused, "miss" when this
	// request trained it.
	Cache     string  `json:"cache"`
	ElapsedMS float64 `json:"elapsed_ms"`

	// Degraded is true when the primary model's fit failed (or its
	// breaker is open) and a fallback answered; Fallback names the path
	// ("stale" or "knn").
	Degraded bool   `json:"degraded,omitempty"`
	Fallback string `json:"fallback,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx answer.
// TracesResponse is the GET /v1/traces payload: lifetime completion
// counters plus the buffered traces rendered as indented span trees,
// oldest first.
type TracesResponse struct {
	Completed uint64   `json:"completed"`
	Slow      uint64   `json:"slow"`
	Traces    []string `json:"traces,omitempty"`
}

type ErrorResponse struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// StatusResponse is the JSON body of GET /v1/status: the server's
// robustness posture — breaker states, degraded-serving counters, and
// the ingest-validation quarantine summary per system.
type StatusResponse struct {
	// Status is "ok", or "degraded" when any breaker is open.
	Status string `json:"status"`
	// ReplicaID is the server's shard identity when it runs as a
	// cluster replica (varserve -replica); empty otherwise.
	ReplicaID string `json:"replica,omitempty"`
	// BreakersOpen counts breakers open right now; StaleServed and
	// KNNServed count predictions answered by each fallback path.
	BreakersOpen int    `json:"breakers_open"`
	StaleServed  uint64 `json:"stale_served"`
	KNNServed    uint64 `json:"knn_served"`
	// Breakers lists every fit breaker the predictor has created.
	Breakers []BreakerJSON `json:"breakers,omitempty"`
	// Quarantine summarizes ingest validation per system (only systems
	// whose datasets have been assembled appear).
	Quarantine []QuarantineJSON `json:"quarantine,omitempty"`
	// ModelStore reports the persistent model registry (absent when the
	// server runs without -modeldir).
	ModelStore *ModelStoreJSON `json:"model_store,omitempty"`
	// Drift reports the streaming-ingest cells (absent until the first
	// POST /v1/measurements creates one).
	Drift *DriftStatusJSON `json:"drift,omitempty"`
}

// DriftStatusJSON is the streaming-ingest posture in GET /v1/status.
type DriftStatusJSON struct {
	// Drifted counts cells currently tripped (drifted or refitting).
	Drifted int `json:"drifted"`
	// Cells lists every ingest cell, sorted by name.
	Cells []DriftCellJSON `json:"cells"`
}

// DriftCellJSON is one ingest cell's drift state.
type DriftCellJSON struct {
	// Cell is "system/suite/bench"; State is filling | fresh |
	// drifted | refitting.
	Cell  string `json:"cell"`
	State string `json:"state"`
	// WindowFill of WindowCap recent runs are held; BaselineN is the
	// training-baseline size the window is compared against.
	WindowFill int `json:"window_fill"`
	WindowCap  int `json:"window_cap"`
	BaselineN  int `json:"baseline_n"`
	// Ingest counters across all batches of this cell.
	Ingested    int            `json:"ingested"`
	Accepted    int            `json:"accepted"`
	Quarantined int            `json:"quarantined"`
	Repaired    int            `json:"repaired,omitempty"`
	ByClass     map[string]int `json:"by_class,omitempty"`
	// Detector state: KS/W1/PValue are the last evaluation (absent
	// before the window reaches its minimum fill).
	Evals    int      `json:"evals"`
	KS       *float64 `json:"ks,omitempty"`
	W1       *float64 `json:"w1,omitempty"`
	PValue   *float64 `json:"p_value,omitempty"`
	Breaches int      `json:"breaches"`
	Trips    int      `json:"trips"`
	// Refit-loop counters; LastRefitAgeMS is the staleness gauge
	// (absent until the first successful refit).
	RefitOK        int     `json:"refit_ok"`
	RefitFail      int     `json:"refit_fail"`
	RefitShed      int     `json:"refit_shed"`
	LastRefitAgeMS float64 `json:"last_refit_age_ms,omitempty"`
}

// MeasurementsRequest is the JSON body of POST /v1/measurements: one
// batch of freshly measured runs for a (system, benchmark) cell of
// the database. Runs flow through ingest validation (quarantine) and
// the survivors feed the drift detector's window.
type MeasurementsRequest struct {
	// System and Benchmark name the cell; both must already exist in
	// the database (ingest extends distributions, it does not create
	// benchmarks).
	System    string `json:"system"`
	Benchmark string `json:"benchmark"`
	// Runs is the measurement batch, schema-aligned with the system's
	// metric names (GET /v1/systems).
	Runs []ProbeRun `json:"runs"`
}

// MeasurementsResponse reports a batch's ingest outcome. Status 200
// means at least one run survived validation; 422 carries the same
// shape (with Error set) when the whole batch was quarantined.
type MeasurementsResponse struct {
	System    string `json:"system"`
	Benchmark string `json:"benchmark"`
	// Accepted runs entered the window; Quarantined were dropped (and
	// ByClass says why); Repaired counts accepted runs that needed
	// counter repair.
	Accepted    int            `json:"accepted"`
	Quarantined int            `json:"quarantined"`
	Repaired    int            `json:"repaired,omitempty"`
	ByClass     map[string]int `json:"by_class,omitempty"`
	// WindowFill is the cell's ring fill after this batch.
	WindowFill int `json:"window_fill"`
	// Drift carries the detector outcome when the window was large
	// enough to evaluate.
	Drift *DriftEvalJSON `json:"drift,omitempty"`
	// Error is set on 422 (fully-unusable batch).
	Error     string  `json:"error,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// DriftEvalJSON is one drift evaluation, attached to the ingest
// response that triggered it.
type DriftEvalJSON struct {
	KS       float64 `json:"ks"`
	W1       float64 `json:"w1"`
	PValue   float64 `json:"p_value"`
	Breaches int     `json:"breaches"`
	Tripped  bool    `json:"tripped"`
	// RefitScheduled is true when this batch queued the background
	// refit.
	RefitScheduled bool `json:"refit_scheduled,omitempty"`
}

// ModelStoreJSON is the model registry's posture in GET /v1/status.
type ModelStoreJSON struct {
	// DiskHits were loaded from the store directory, Misses fitted
	// (and persisted), Refreshes drift refits (fitted and persisted).
	DiskHits  uint64 `json:"disk_hits"`
	Misses    uint64 `json:"misses"`
	Refreshes uint64 `json:"refreshes"`
	// LoadErrors counts rejected files (corrupt/version-skewed/
	// fingerprint-mismatched), SaveErrors failed persists.
	LoadErrors uint64 `json:"load_errors"`
	SaveErrors uint64 `json:"save_errors"`
}

// BreakerJSON is one fit breaker's state.
type BreakerJSON struct {
	Key          string  `json:"key"`
	Open         bool    `json:"open"`
	Failures     int     `json:"failures"`
	Trips        int     `json:"trips"`
	RetryAfterMS float64 `json:"retry_after_ms,omitempty"`
	LastError    string  `json:"last_error,omitempty"`
}

// QuarantineJSON is one system's ingest-validation summary.
type QuarantineJSON struct {
	System            string `json:"system"`
	RunsTotal         int    `json:"runs_total"`
	RunsQuarantined   int    `json:"runs_quarantined"`
	RunsRepaired      int    `json:"runs_repaired"`
	ProbesTotal       int    `json:"probes_total"`
	ProbesQuarantined int    `json:"probes_quarantined"`
	// ByClass counts defects by fault class across both run sets.
	ByClass map[string]int `json:"by_class,omitempty"`
	// UnusableBenchmarks lists benchmarks excluded from training.
	UnusableBenchmarks []string `json:"unusable_benchmarks,omitempty"`
}

// SystemsResponse describes the loaded measurement database.
type SystemsResponse struct {
	RunsPerBenchmark      int          `json:"runs_per_benchmark"`
	ProbeRunsPerBenchmark int          `json:"probe_runs_per_benchmark"`
	Systems               []SystemJSON `json:"systems"`
}

// SystemJSON describes one system in the database.
type SystemJSON struct {
	Name        string   `json:"name"`
	MetricNames []string `json:"metric_names"`
	Benchmarks  []string `json:"benchmarks"`
}

// probeRuns converts the wire probe profile into simulator runs.
func (r *PredictRequest) probeRuns() []perfsim.Run { return toRuns(r.ProbeRuns) }

// toRuns converts one wire probe profile into simulator runs.
func toRuns(prs []ProbeRun) []perfsim.Run {
	runs := make([]perfsim.Run, len(prs))
	for i, pr := range prs {
		runs[i] = perfsim.Run{Seconds: pr.Seconds, Metrics: pr.Metrics}
	}
	return runs
}
