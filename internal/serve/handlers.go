package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/distrep"
	"repro/internal/perfsim"
	"repro/internal/stats"
	"repro/internal/wire"
)

// maxBatchProfiles bounds one batch request so a single client cannot
// monopolize the worker pool with an arbitrarily large fan-out.
const maxBatchProfiles = 256

// statusClientClosedRequest is nginx's convention for "the client went
// away before we could answer".
const statusClientClosedRequest = 499

// bufPool holds request-scoped byte buffers for body reads and response
// encoding, so the steady-state request path reuses one warm buffer per
// worker instead of allocating per call. Buffers are returned only
// after their bytes are fully consumed (the request decoders copy what
// they keep; responses are flushed before release).
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads at most wire.MaxBodyBytes of r's body into a pooled
// buffer. The cap is enforced with http.MaxBytesReader rather than a
// silent LimitReader truncation: an oversized body surfaces as a
// *http.MaxBytesError (rendered as a structured 413 by
// writeBodyError) instead of a confusing JSON decode error on a
// half-read document, and the connection is closed so the client
// stops uploading. The returned release func recycles the buffer; the
// byte slice must not be used after calling it.
func readBody(w http.ResponseWriter, r *http.Request) (body []byte, release func(), err error) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	release = func() { bufPool.Put(buf) }
	r.Body = http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes)
	if _, err := buf.ReadFrom(r.Body); err != nil {
		release()
		return nil, nil, err
	}
	return buf.Bytes(), release, nil
}

// writeBodyError renders a body-read failure: a structured 413 for
// bodies over the cap, 400 for transport errors.
func writeBodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge, wire.TooLarge(mbe.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
}

// maxQueueWait bounds how long a request queues for a worker slot once
// the pool is saturated. Past it the server sheds the request with 503
// + Retry-After instead of holding the connection open until the
// request deadline — load shedding beats queue collapse.
const maxQueueWait = time.Second

// acquireWorker takes a worker slot: immediately when one is free,
// otherwise queueing up to maxQueueWait (but never past the request
// deadline). It writes the 503/504/499 response itself on failure and
// reports whether the slot was acquired.
func (s *Server) acquireWorker(ctx context.Context, w http.ResponseWriter) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	s.saturated.Inc()
	queue := time.NewTimer(maxQueueWait)
	defer queue.Stop()
	select {
	case s.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		writeTimeout(ctx, w, "waiting for a worker")
		return false
	case <-queue.C:
		setRetryAfter(w, maxQueueWait)
		writeError(w, http.StatusServiceUnavailable, "worker pool saturated; retry later")
		return false
	}
}

// onWorker runs fn on a worker slot under ctx and returns its result.
// When it reports false it has already written the response:
// acquireWorker's 503/504/499 when no slot frees up, 504/499 when ctx
// ends before fn returns (fn then finishes in the background and frees
// its slot), or fn's error through writePredictError. phase names the
// work in a timeout's message.
func onWorker[T any](ctx context.Context, s *Server, w http.ResponseWriter, phase string, fn func() (T, error)) (T, bool) {
	var zero T
	if !s.acquireWorker(ctx, w) {
		return zero, false
	}
	type outcome struct {
		v   T
		err error
	}
	done := make(chan outcome, 1)
	//lint:allow goroutinecheck request-scoped worker already holds a pool slot (s.sem); freeing it is this goroutine's job
	go func() {
		defer func() { <-s.sem }()
		v, err := fn()
		done <- outcome{v, err}
	}()
	select {
	case <-ctx.Done():
		writeTimeout(ctx, w, phase)
		return zero, false
	case out := <-done:
		if out.err != nil {
			writePredictError(w, out.err)
			return zero, false
		}
		return out.v, true
	}
}

func (s *Server) handleUC1(w http.ResponseWriter, r *http.Request) { s.handlePredict(w, r, 1) }
func (s *Server) handleUC2(w http.ResponseWriter, r *http.Request) { s.handlePredict(w, r, 2) }

// handlePredict is the shared request path of both endpoints: decode,
// validate, acquire a worker, predict under the request deadline, and
// render the distribution summary.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request, useCase int) {
	start := clock()
	body, release, err := readBody(w, r)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	var req PredictRequest
	err = decodePredict(body, &req)
	release()
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad JSON: %v", err))
		return
	}
	if err := validateRequest(&req, useCase); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	model, err := core.ParseModel(req.Model)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	rep, err := distrep.ParseKind(req.Representation)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	req.Seed = requestSeed(req.Seed)

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	pred, ok := onWorker(ctx, s, w, "prediction", func() (*core.Prediction, error) {
		return s.predict(ctx, &req, useCase, model, rep)
	})
	if !ok {
		return
	}
	resp := buildResponse(&req, useCase, pred)
	resp.ElapsedMS = float64(clock.Since(start)) / float64(time.Millisecond)
	writeJSON(w, http.StatusOK, resp)
}

// handleUC1Batch predicts many raw probe profiles in one request: all
// profiles share one cached deployment model, and the per-profile
// predictions fan out across the shared worker pool (core's
// PredictBatch path). The whole batch occupies a single worker slot and
// runs under the normal request deadline.
func (s *Server) handleUC1Batch(w http.ResponseWriter, r *http.Request) {
	start := clock()
	body, release, err := readBody(w, r)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	var req BatchPredictRequest
	err = decodeBatch(body, &req)
	release()
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad JSON: %v", err))
		return
	}
	if req.System == "" {
		writeError(w, http.StatusBadRequest, `"system" is required`)
		return
	}
	if len(req.Profiles) == 0 {
		writeError(w, http.StatusBadRequest, `"profiles" must contain at least one probe profile`)
		return
	}
	if len(req.Profiles) > maxBatchProfiles {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d profiles exceeds the limit of %d", len(req.Profiles), maxBatchProfiles))
		return
	}
	model, err := core.ParseModel(req.Model)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	rep, err := distrep.ParseKind(req.Representation)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	req.Seed = requestSeed(req.Seed)
	cfg := uc1Config(rep, model, req.Samples, req.Bins, req.Seed)
	probes := make([][]perfsim.Run, len(req.Profiles))
	for i, prs := range req.Profiles {
		probes[i] = toRuns(prs)
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	preds, ok := onWorker(ctx, s, w, "batch prediction", func() ([]*core.Prediction, error) {
		return s.pred.PredictUC1ProfileBatch(ctx, req.System, probes, req.N, cfg)
	})
	if !ok {
		return
	}
	resp := &BatchPredictResponse{
		UseCase:        1,
		System:         req.System,
		Model:          model.String(),
		Representation: rep.String(),
		Seed:           req.Seed,
		Count:          len(preds),
		Cache:          "miss",
	}
	if preds[0].CacheHit {
		resp.Cache = "hit"
	}
	resp.Degraded = preds[0].Degraded
	resp.Fallback = preds[0].Fallback
	for _, p := range preds {
		resp.Results = append(resp.Results, summarize(p.Predicted, core.NewSampleSummary(p.Predicted), req.Bins))
	}
	resp.ElapsedMS = float64(clock.Since(start)) / float64(time.Millisecond)
	writeJSON(w, http.StatusOK, resp)
}

// predict dispatches to the cached predictor. ctx carries the request
// trace span; the predictor methods hang their fit/predict children
// off it.
func (s *Server) predict(ctx context.Context, req *PredictRequest, useCase int, model core.Model, rep distrep.Kind) (*core.Prediction, error) {
	switch useCase {
	case 1:
		cfg := uc1Config(rep, model, req.Samples, req.Bins, req.Seed)
		if req.Benchmark != "" {
			return s.pred.PredictUC1(ctx, req.System, req.Benchmark, cfg)
		}
		return s.pred.PredictUC1Profile(ctx, req.System, req.probeRuns(), req.N, cfg)
	default:
		cfg := core.UC2Config{Rep: rep, Model: model, Bins: req.Bins, Seed: req.Seed}
		if req.Benchmark != "" {
			return s.pred.PredictUC2(ctx, req.Source, req.Target, req.Benchmark, cfg)
		}
		return s.pred.PredictUC2Profile(ctx, req.Source, req.Target, req.probeRuns(), req.SourceRelTimes, req.N, cfg)
	}
}

// requestSeed is the seed a request asks for: 1 when it leaves the
// seed zero.
func requestSeed(seed uint64) uint64 {
	if seed == 0 {
		return 1
	}
	return seed
}

// uc1Config is the UC1 configuration a request asks for: a profile of
// samples runs, the paper's budget of 10 when it leaves samples zero or
// negative.
func uc1Config(rep distrep.Kind, model core.Model, samples, bins int, seed uint64) core.UC1Config {
	if samples <= 0 {
		samples = 10
	}
	return core.UC1Config{Rep: rep, Model: model, NumSamples: samples, Bins: bins, Seed: seed}
}

// validateRequest enforces the per-use-case field contract.
func validateRequest(req *PredictRequest, useCase int) error {
	hasBench := req.Benchmark != ""
	hasProbe := len(req.ProbeRuns) > 0
	if hasBench == hasProbe {
		return errors.New(`exactly one of "benchmark" or "probe_runs" must be set`)
	}
	switch useCase {
	case 1:
		if req.System == "" {
			return errors.New(`"system" is required for use case 1`)
		}
	case 2:
		if req.Source == "" || req.Target == "" {
			return errors.New(`"source" and "target" are required for use case 2`)
		}
		if hasProbe && len(req.SourceRelTimes) < 2 {
			return errors.New(`"source_rel_times" (>= 2 values) is required with "probe_runs" for use case 2`)
		}
	}
	return nil
}

// buildResponse summarizes the predicted sample: quantiles, a density
// histogram, moments, and modality, plus the KS/W1 scores against the
// measured ground truth when the request named a database benchmark.
// A database benchmark's prediction comes with both summaries
// precomputed, in p.PredictedSummary and p.Measured; a profile
// prediction is new on every request, so its summary is built here.
func buildResponse(req *PredictRequest, useCase int, p *core.Prediction) *PredictResponse {
	ps := p.PredictedSummary
	if ps == nil {
		ps = core.NewSampleSummary(p.Predicted)
	}
	sum := summarize(p.Predicted, ps, req.Bins)
	model, _ := core.ParseModel(req.Model)
	rep, _ := distrep.ParseKind(req.Representation)
	resp := &PredictResponse{
		UseCase:        useCase,
		System:         req.System,
		Source:         req.Source,
		Target:         req.Target,
		Benchmark:      req.Benchmark,
		Model:          model.String(),
		Representation: rep.String(),
		Seed:           req.Seed,
		N:              sum.N,
		Quantiles:      sum.Quantiles,
		Histogram:      sum.Histogram,
		Moments:        sum.Moments,
		Modes:          sum.Modes,
		Cache:          "miss",
	}
	if p.CacheHit {
		resp.Cache = "hit"
	}
	resp.Degraded = p.Degraded
	resp.Fallback = p.Fallback
	if m := p.Measured; m != nil {
		ks := stats.KSSorted(ps.Sorted, m.Sorted)
		w1 := stats.Wasserstein1Sorted(ps.Sorted, m.Sorted)
		resp.KSVsMeasured = &ks
		resp.W1VsMeasured = &w1
		resp.Measured = &MeasuredJSON{
			N:       len(m.Sorted),
			Moments: momentsJSON(m.Moments),
			Modes:   m.Modes,
		}
	}
	return resp
}

// summarize renders the predicted sample's quantiles, histogram,
// moments and modes. The sorted copy, the moments and the mode count
// come from sum, the summary of pred; the quantiles and the histogram
// are computed here, each in one pass.
func summarize(pred []float64, sum *core.SampleSummary, bins int) BatchResultJSON {
	return BatchResultJSON{
		N:         len(pred),
		Quantiles: quantileMap(sum.Sorted),
		Histogram: histogramJSON(pred, bins),
		Moments:   momentsJSON(sum.Moments),
		Modes:     sum.Modes,
	}
}

var quantilePoints = []struct {
	name string
	q    float64
}{
	{"p1", 0.01}, {"p5", 0.05}, {"p25", 0.25}, {"p50", 0.50},
	{"p75", 0.75}, {"p90", 0.90}, {"p95", 0.95}, {"p99", 0.99},
}

// quantileProbs holds quantilePoints' probabilities in order.
var quantileProbs = func() []float64 {
	qs := make([]float64, len(quantilePoints))
	for i, p := range quantilePoints {
		qs[i] = p.q
	}
	return qs
}()

// quantileMap renders the named quantiles of a sorted sample.
func quantileMap(sorted []float64) Quantiles {
	vals := stats.QuantilesSorted(sorted, quantileProbs)
	out := make(Quantiles, len(quantilePoints))
	for i, p := range quantilePoints {
		out[p.name] = vals[i]
	}
	return out
}

func histogramJSON(xs []float64, bins int) *HistogramJSON {
	if bins <= 0 {
		bins = 50
	}
	lo, hi := stats.MinMax(xs)
	if hi <= lo {
		hi = lo + 1e-9 // degenerate sample: one zero-width spike
	}
	h := stats.HistogramFromSample(xs, lo, hi, bins)
	density := make([]float64, bins)
	for i := range density {
		density[i] = h.Density(i)
	}
	return &HistogramJSON{Lo: h.Lo, Hi: h.Hi, BinWidth: h.BinWidth(), Density: density}
}

func momentsJSON(m stats.Moments4) MomentsJSON {
	return MomentsJSON{Mean: m.Mean, Std: m.Std, Skew: m.Skew, Kurt: m.Kurt}
}

// writePredictError maps predictor errors onto HTTP statuses: unknown
// IDs are 404 (the IDs are resource names), quarantined benchmarks are
// 422 (the request is well-formed; the data is unusable), an open
// breaker whose fallbacks also failed is 503 with Retry-After, a fit
// failure is 500, and config mistakes are 400.
func writePredictError(w http.ResponseWriter, err error) {
	var boe *core.BreakerOpenError
	switch {
	case errors.Is(err, core.ErrUnknownSystem), errors.Is(err, core.ErrUnknownBenchmark):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, core.ErrBenchmarkQuarantined):
		writeError(w, http.StatusUnprocessableEntity, err.Error())
	case errors.As(err, &boe):
		setRetryAfter(w, boe.RetryAfter)
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, core.ErrFitFailed):
		writeError(w, http.StatusInternalServerError, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

// setRetryAfter renders d as a Retry-After header, rounded up to whole
// seconds with a 1s floor (the header has second granularity).
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// writeTimeout distinguishes a server-side deadline (504) from a client
// disconnect (499).
func writeTimeout(ctx context.Context, w http.ResponseWriter, phase string) {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		writeError(w, http.StatusGatewayTimeout, fmt.Sprintf("deadline exceeded while %s", phase))
		return
	}
	writeError(w, statusClientClosedRequest, fmt.Sprintf("client canceled while %s", phase))
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg, Code: status})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Encode into a pooled buffer first: one write to the wire, no
	// per-response encoder allocation, and a failed encode can't leave a
	// half-written body behind the already-sent status.
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	err := json.NewEncoder(buf).Encode(v)
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = fmt.Fprintf(w, `{"error":"encode response: %v","code":500}`+"\n", jsonSafe(err.Error()))
		bufPool.Put(buf)
		return
	}
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	bufPool.Put(buf)
}

// jsonSafe strips characters that would break a hand-built JSON string.
func jsonSafe(s string) string {
	b, _ := json.Marshal(s)
	if len(b) >= 2 {
		return string(b[1 : len(b)-1])
	}
	return ""
}

// handleSystems describes the loaded database: what can be asked for
// and what the metric schema of a probe profile must look like.
func (s *Server) handleSystems(w http.ResponseWriter, _ *http.Request) {
	db := s.pred.DB()
	resp := SystemsResponse{
		RunsPerBenchmark:      db.RunsPerBenchmark,
		ProbeRunsPerBenchmark: db.ProbeRunsPerBenchmark,
	}
	for i := range db.Systems {
		sd := &db.Systems[i]
		sys := SystemJSON{Name: sd.SystemName, MetricNames: sd.MetricNames}
		for j := range sd.Benchmarks {
			sys.Benchmarks = append(sys.Benchmarks, sd.Benchmarks[j].Workload.ID())
		}
		resp.Systems = append(resp.Systems, sys)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, readyzBody("draining", 0, s.cfg.ReplicaID))
		return
	}
	// Degraded is still ready: the fallback chain answers requests. The
	// status string flips so orchestrators (and humans) can see it.
	if deg := s.pred.Degraded(); deg.BreakersOpen > 0 {
		writeJSON(w, http.StatusOK, readyzBody("degraded", deg.BreakersOpen, s.cfg.ReplicaID))
		return
	}
	writeJSON(w, http.StatusOK, readyzBody("ready", 0, s.cfg.ReplicaID))
}

// readyzBody renders the /readyz payload, carrying the shard identity
// when the server runs as a cluster replica.
func readyzBody(status string, breakersOpen int, replica string) map[string]any {
	body := map[string]any{"status": status}
	if breakersOpen > 0 {
		body["breakers_open"] = breakersOpen
	}
	if replica != "" {
		body["replica"] = replica
	}
	return body
}

// handleStatus renders the robustness posture: breaker states, the
// degraded-serving counters, and the per-system quarantine summary.
func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	deg := s.pred.Degraded()
	resp := StatusResponse{
		Status:       "ok",
		ReplicaID:    s.cfg.ReplicaID,
		BreakersOpen: deg.BreakersOpen,
		StaleServed:  deg.StaleServed,
		KNNServed:    deg.KNNServed,
	}
	if deg.BreakersOpen > 0 {
		resp.Status = "degraded"
	}
	if reg := s.pred.ModelStore(); reg != nil {
		ss := reg.Stats()
		resp.ModelStore = &ModelStoreJSON{
			DiskHits:   ss.DiskHits,
			Misses:     ss.Misses,
			Refreshes:  ss.Refreshes,
			LoadErrors: ss.LoadErrors,
			SaveErrors: ss.SaveErrors,
		}
	}
	for _, b := range s.pred.Breakers() {
		resp.Breakers = append(resp.Breakers, BreakerJSON{
			Key:          b.Key,
			Open:         b.Open,
			Failures:     b.Failures,
			Trips:        b.Trips,
			RetryAfterMS: float64(b.RetryAfter) / float64(time.Millisecond),
			LastError:    b.LastErr,
		})
	}
	reports := s.pred.QuarantineReports()
	systems := make([]string, 0, len(reports))
	for sys := range reports {
		systems = append(systems, sys)
	}
	sort.Strings(systems)
	for _, sys := range systems {
		q := reports[sys]
		j := QuarantineJSON{
			System:            sys,
			RunsTotal:         q.Runs.Total,
			RunsQuarantined:   q.Runs.Quarantined,
			RunsRepaired:      q.Runs.Repaired,
			ProbesTotal:       q.Probes.Total,
			ProbesQuarantined: q.Probes.Quarantined,
		}
		for class, n := range q.Runs.ByClass {
			if j.ByClass == nil {
				j.ByClass = map[string]int{}
			}
			j.ByClass[class] += n
		}
		for class, n := range q.Probes.ByClass {
			if j.ByClass == nil {
				j.ByClass = map[string]int{}
			}
			j.ByClass[class] += n
		}
		for _, b := range q.Benchmarks {
			if b.Unusable {
				j.UnusableBenchmarks = append(j.UnusableBenchmarks, b.Benchmark)
			}
		}
		resp.Quarantine = append(resp.Quarantine, j)
	}
	if cells := s.drift.Snapshot(); len(cells) > 0 {
		d := &DriftStatusJSON{}
		now := clock()
		for i := range cells {
			c := &cells[i]
			j := DriftCellJSON{
				Cell:        c.Cell,
				State:       c.State(),
				WindowFill:  c.WindowFill,
				WindowCap:   c.WindowCap,
				BaselineN:   c.Baseline,
				Ingested:    c.Ingested,
				Accepted:    c.Accepted,
				Quarantined: c.Quarantined,
				Repaired:    c.Repaired,
				ByClass:     c.ByClass,
				Evals:       c.Evals,
				Breaches:    c.Breaches,
				Trips:       c.Trips,
				RefitOK:     c.RefitOK,
				RefitFail:   c.RefitFail,
				RefitShed:   c.RefitShed,
			}
			if c.HasEval {
				j.KS, j.W1, j.PValue = &c.KS, &c.W1, &c.PValue
			}
			if c.HasRefit {
				j.LastRefitAgeMS = float64(now.Sub(c.LastRefit)) / float64(time.Millisecond)
			}
			if c.Tripped {
				d.Drifted++
			}
			d.Cells = append(d.Cells, j)
		}
		resp.Drift = d
	}
	writeJSON(w, http.StatusOK, resp)
}
