package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distrep"
	"repro/internal/measure"
	"repro/internal/modelstore"
	"repro/internal/obs"
	"repro/internal/randx"
	"repro/internal/serve"
)

// The traced run replays a workload's seeded request stream inside this
// process, on one goroutine locked to its OS thread, and times every
// layer by calling its public functions from outside:
//
//	serve.handler        Server.Handler().ServeHTTP, the whole request
//	serve.decode         json.Unmarshal into the serve request type
//	core.predict         the Predictor entry point the handler calls
//	stats.summary_other  Quantiles + HistogramFromSample + ComputeMoments4
//	stats.kde_modes      NewKDE(x).CountModes(512, 0.1)
//	stats.ksw1           KSStatistic + Wasserstein1
//	serve.encode         json.Marshal of the response type
//
// The calls after serve.handler re-run the handler's steps one by one,
// so their self times add up to the handler's time less what the trace
// cannot see (routing, the worker pool, response writing):
// trace.coverage is that sum over serve.handler. The decomposition
// mirrors internal/serve/handlers.go as it stands; a later change to
// the handler's steps shows as coverage moving away from 1. Every read
// runs this way twice, once recording spans and once not;
// trace.overhead is the recording pass's time over the other's.

// coverageLayers are the layers that re-run the handler's steps.
var coverageLayers = []string{"serve.decode", "core.predict", "stats.summary_other", "stats.kde_modes", "stats.ksw1", "serve.encode"}

// allocLayers are the layers whose calls carry runtime.MemStats deltas.
var allocLayers = []string{
	"serve.handler", "serve.decode", "serve.encode", "core.predict",
	"stats.kde_modes", "stats.ksw1", "stats.summary_other",
	"distrep.decode.pearsonrnd", "distrep.decode.histogram", "distrep.decode.pymaxent",
}

var distrepKinds = []struct {
	name string
	kind distrep.Kind
}{{"pearsonrnd", distrep.PearsonRnd}, {"histogram", distrep.Histogram}, {"pymaxent", distrep.MaxEnt}}

// span is one timed call. Times are offsets from the start of the
// trace; Allocs and Bytes are MemStats deltas across the call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Req    int    `json:"req"`    // request id, -1 outside the replay
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A timing tracer
// adds nothing between the calls it times; an allocation tracer (mem)
// reads runtime.MemStats around each call, outside its timed window,
// and its times are not reported. A nil tracer records nothing and only
// runs the calls: the untraced pass trace.overhead compares against.
type tracer struct {
	t0    time.Time
	mem   bool
	spans []span
}

func newTracer(t0 time.Time, mem bool) *tracer {
	// Room for a whole replay, so appending never copies the slice
	// between two timed calls.
	return &tracer{t0: t0, mem: mem, spans: make([]span, 0, 1<<15)}
}

// call runs fn as a span.
func (tr *tracer) call(name string, parent, req int, fn func()) *span {
	if tr == nil {
		fn()
		return nil
	}
	var m0, m1 runtime.MemStats
	if tr.mem {
		runtime.ReadMemStats(&m0)
	}
	start := time.Now()
	fn()
	end := time.Now()
	if tr.mem {
		runtime.ReadMemStats(&m1)
	}
	tr.spans = append(tr.spans, span{
		ID: len(tr.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(tr.t0)), End: int64(end.Sub(tr.t0)),
		Allocs: m1.Mallocs - m0.Mallocs, Bytes: m1.TotalAlloc - m0.TotalAlloc,
	})
	return &tr.spans[len(tr.spans)-1]
}

// open starts a parent span; close ends it.
func (tr *tracer) open(name string, req int) int {
	if tr == nil {
		return 0
	}
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Req: req, Name: name, Start: int64(time.Since(tr.t0))})
	return len(tr.spans)
}

func (tr *tracer) close(id int) {
	if tr != nil {
		tr.spans[id-1].End = int64(time.Since(tr.t0))
	}
}

// selfTimes returns each span's duration less the part its children
// cover (children of one parent never overlap here: the replay is
// sequential).
func (tr *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(tr.spans))
	for i := range tr.spans {
		self[i] += tr.spans[i].dur()
		if p := tr.spans[i].Parent; p > 0 {
			self[p-1] -= tr.spans[i].dur()
		}
	}
	return self
}

// write dumps the spans as JSON lines.
func (tr *tracer) write(path string) error {
	pass := "time"
	if tr.mem {
		pass = "alloc"
	}
	path = strings.TrimSuffix(path, ".jsonl") + "-" + pass + ".jsonl"
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probe is the fixed scalar-float loop knn.sse_slowdown times.
func probe() time.Duration {
	start := time.Now()
	s := 0.0
	for i := 0; i < 50000; i++ {
		s += math.Exp(-float64(i) * 1e-5)
	}
	d := time.Since(start)
	probeSink = s
	return d
}

var probeSink float64

// traceEnv is the in-process serving topology of a traced run: one
// serve.Server, or for cluster_mixed two replicas on loopback behind an
// in-process router.
type traceEnv struct {
	servers []*serve.Server
	router  *cluster.Router
	metrics *obs.Registry
	url     string // router URL (cluster_mixed only)
	hc      *http.Client
	cancel  context.CancelFunc
	front   *http.Server
	done    []chan error // goroutines stop waits for
}

func (e *traceEnv) clustered() bool { return e.router != nil }

// spawn runs fn on a goroutine that stop waits for.
func (e *traceEnv) spawn(fn func() error) {
	d := make(chan error, 1)
	e.done = append(e.done, d)
	go func() { d <- fn() }()
}

func (e *traceEnv) stop() {
	e.cancel()
	if e.front != nil {
		_ = e.front.Close()
	}
	for _, d := range e.done {
		<-d
	}
	e.hc.CloseIdleConnections()
}

// owner returns the server that owns the request's routing key.
func (e *traceEnv) owner(r *request) *serve.Server {
	if !e.clustered() {
		return e.servers[0]
	}
	var key string
	switch {
	case r.kind == kindUC2:
		key = modelstore.DatasetKey(2, r.pred.Source, r.pred.Target)
	case r.pred != nil:
		key = modelstore.DatasetKey(1, r.pred.System, "")
	default:
		key = modelstore.DatasetKey(1, r.write.System, "")
	}
	id := e.router.Owners()[key]
	for i, srv := range e.servers {
		if replicaID(i) == id {
			return srv
		}
	}
	return e.servers[0]
}

func replicaID(i int) string { return fmt.Sprintf("replica-%d", i) }

func newTraceEnv(ctx context.Context, workload string, db *measure.Database) (*traceEnv, error) {
	ctx, cancel := context.WithCancel(ctx)
	e := &traceEnv{hc: &http.Client{Timeout: 60 * time.Second}, cancel: cancel}
	if workload != wlCluster {
		e.servers = []*serve.Server{serve.New(db, serve.Config{})}
		return e, nil
	}
	e.metrics = obs.NewRegistry()
	cfg := cluster.Config{Policy: cluster.PolicyByName("cache-affinity"), Metrics: e.metrics, Tracer: obs.NewTracer(obs.Config{})}
	for i := 0; i < 2; i++ {
		srv := serve.New(db, serve.Config{Addr: "127.0.0.1:0", ReplicaID: replicaID(i)})
		if err := srv.Listen(); err != nil {
			e.stop()
			return nil, err
		}
		e.servers = append(e.servers, srv)
		e.spawn(func() error { return srv.Serve(ctx) })
		cfg.Backends = append(cfg.Backends, cluster.NewHTTPBackend(replicaID(i), "http://"+srv.Addr(), nil, 30*time.Second))
	}
	router, err := cluster.New(cfg)
	if err != nil {
		e.stop()
		return nil, err
	}
	e.router = router
	router.ProbeAll(ctx)
	e.spawn(func() error { router.Run(ctx); return nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.stop()
		return nil, err
	}
	e.front = &http.Server{Handler: cluster.NewFrontend(router, e.metrics)}
	e.spawn(func() error { return e.front.Serve(ln) })
	e.url = "http://" + ln.Addr().String()
	return e, nil
}

func (e *traceEnv) cacheStats() (hits, misses uint64) {
	for _, srv := range e.servers {
		s := srv.Predictor().CacheStats()
		hits += s.Hits
		misses += s.Misses
	}
	return hits, misses
}

// post sends one request over HTTP to base and returns the status,
// the body and the latency.
func (e *traceEnv) post(ctx context.Context, base string, r *request) (int, []byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path(), bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := e.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), time.Since(start), err
}

// handle runs one request through a server's handler in-process.
func handle(srv *serve.Server, r *request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, r.path(), bytes.NewReader(r.body))
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

// traceState accumulates the traced run's extra numbers.
type traceState struct {
	tr         *tracer // timing pass
	allocTr    *tracer // allocation pass over the first allocReads reads
	allocDone  int
	overhead   []float64 // per read: traced over untraced pass time
	kdeCalls   int
	decomposed int // requests decomposed into layers
	fitS       []float64
	hops       []float64
	ingestMS   []float64
	afterKNN   []float64
	afterOther []float64
	problems   []string
	attempted  int
	failed     int
}

// allocReads is how many reads the allocation pass repeats.
const allocReads = 8

func (st *traceState) fail(format string, args ...any) {
	st.problems = append(st.problems, fmt.Sprintf(format, args...))
}

// runTraced is the traced run.
func runTraced(ctx context.Context, o options) (*result, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := time.Now()
	st := &traceState{tr: newTracer(t0, false), allocTr: newTracer(t0, true)}
	var db *measure.Database
	var err error
	collectSpan := st.tr.call("measure.collect", 0, -1, func() { db, err = collect() })
	if err != nil {
		return nil, fmt.Errorf("collect campaign in-process: %w", err)
	}
	budget := time.Duration(o.seconds) * time.Second
	// Before anything else runs the kNN kernel in this process.
	if err := slowdownProbe(ctx, db, st, budget/4); err != nil {
		return nil, fmt.Errorf("knn probe: %w", err)
	}
	nproc := clientCount()
	// The same per-client streams the timed run sends, interleaved.
	streams, err := buildStreams(o.workload, db, o.seed, nproc, perClient(o.workload, o.seconds))
	if err != nil {
		return nil, err
	}
	reqs := interleave(streams)
	env, err := newTraceEnv(ctx, o.workload, db)
	if err != nil {
		return nil, fmt.Errorf("start in-process servers: %w", err)
	}
	defer env.stop()

	// Warm-up: one request per model key, each timed as one fit.
	for _, r := range warmups(o.workload, db) {
		start := time.Now()
		status := 0
		if env.clustered() {
			status, _, _, err = env.post(ctx, env.url, r)
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		} else {
			status = handle(env.servers[0], r).Code
		}
		if status/100 != 2 {
			return nil, fmt.Errorf("warm-up POST %s: HTTP %d", r.path(), status)
		}
		st.fitS = append(st.fitS, time.Since(start).Seconds())
	}

	hits0, misses0 := env.cacheStats()
	var share0 cluster.Status
	if env.clustered() {
		if _, share0, err = ownerShare(ctx, env.url); err != nil {
			return nil, err
		}
	}
	// The replay runs on a wall-clock budget, so a slowed thread
	// shortens the replay instead of stretching the run; the drift
	// episode always completes.
	deadline := time.Now().Add(budget)
	minReqs := 0
	if o.workload == wlCluster {
		// Client 0's drift episode, interleaved with the other clients.
		minReqs = nproc * streams[0].wrap
	}
	for id, r := range reqs {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("replay: interrupted")
		}
		if id >= minReqs && time.Now().After(deadline) {
			break
		}
		if err := replayOne(ctx, env, st, id, r); err != nil {
			return nil, fmt.Errorf("replay request %d (POST %s): %w", id, r.path(), err)
		}
	}
	hits1, misses1 := env.cacheStats()

	m := map[string]metric{}
	for _, name := range perLayerNames() {
		m[name] = metric{0, perLayerUnits[name]}
	}
	set := func(name string, v float64) { m[name] = metric{v, perLayerUnits[name]} }
	set("measure.collect_s", collectSpan.dur().Seconds())
	set("ml.fit_s", mean(st.fitS))
	if d := float64(hits1 - hits0 + misses1 - misses0); d > 0 {
		set("core.cache_hit_ratio", float64(hits1-hits0)/d)
	}
	if len(st.overhead) > 0 {
		set("trace.overhead", median(st.overhead))
	}
	if st.decomposed > 0 {
		set("stats.kde_calls_per_req", float64(st.kdeCalls)/float64(st.decomposed))
	}
	set("knn.sse_slowdown", median(st.afterKNN)/median(st.afterOther))
	if env.clustered() {
		d, err := clusterTraceMetrics(ctx, env, st, share0, set)
		if err != nil {
			return nil, err
		}
		st.problems = append(st.problems, driftProblems(d, db)...)
	}
	table := layerTable(st, set)

	fmt.Printf("workload %s  seed %d  traced in-process replay: %d requests, %d decomposed, %.0fs budget\n",
		o.workload, o.seed, st.attempted, st.decomposed, budget.Seconds())
	fmt.Print(table)
	fmt.Printf("  knn probe: %.3f ms after a kNN prediction, %.3f ms after a random-forest one (medians of %d)\n",
		median(st.afterKNN)/1e6, median(st.afterOther)/1e6, len(st.afterKNN))
	for _, name := range perLayerNames() {
		fmt.Printf("  %-34s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
	for _, p := range st.problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
	path := filepath.Join(o.outDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	for _, tr := range []*tracer{st.tr, st.allocTr} {
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	fmt.Printf("  spans: %d timed, %d allocation-pass, under %s\n", len(st.tr.spans), len(st.allocTr.spans), filepath.Dir(path))
	printHost(hostRecord(o, map[string]int{"perfbench": runtime.GOMAXPROCS(0)}))
	return &result{
		Correct:   len(st.problems) == 0,
		Attempted: st.attempted,
		Failed:    st.failed,
		Metrics:   m,
	}, nil
}

// slowdownProbe times the fixed scalar probe right after random-forest
// predictions, then right after kNN predictions, on this goroutine,
// with nothing in between. The random-forest side runs first, before
// the process has ever run the kNN kernel. Both models are intel
// PearsonRnd deployment models on a predictor of their own.
func slowdownProbe(ctx context.Context, db *measure.Database, st *traceState, budget time.Duration) error {
	const rounds = 10
	p := core.NewPredictor(db)
	sd := &db.Systems[0]
	probeRuns := sd.Benchmarks[0].ProbeRuns[:probeRunsPerProfile]
	for _, side := range []struct {
		cfg core.UC1Config
		out *[]float64
	}{{uc1Config("rf", "pearsonrnd"), &st.afterOther}, {uc1Config("knn", "pearsonrnd"), &st.afterKNN}} {
		// The first call fits the model.
		if _, err := p.PredictUC1Profile(ctx, sd.SystemName, probeRuns, 0, side.cfg); err != nil {
			return err
		}
		deadline := time.Now().Add(budget / 2)
		for i := 0; i < rounds && (i < 3 || time.Now().Before(deadline)); i++ {
			if _, err := p.PredictUC1Profile(ctx, sd.SystemName, probeRuns, 0, side.cfg); err != nil {
				return err
			}
			*side.out = append(*side.out, float64(probe()))
		}
	}
	return nil
}

// replayOne replays one request. A write goes through the router once.
// A read goes through the router and straight to its owner (for the
// hop), then runs twice in a row as a pass: the owner's handler, then
// the handler's steps layer by layer. One pass records spans and the
// other does not, each is timed as a whole, and which runs first
// alternates from read to read. The first allocReads reads run one
// more pass with allocation counting.
func replayOne(ctx context.Context, env *traceEnv, st *traceState, id int, r *request) error {
	st.attempted++
	tr := st.tr
	if r.kind == kindWrite {
		status, body, lat, err := env.post(ctx, env.url, r)
		if err != nil {
			return err
		}
		if status/100 != 2 {
			st.failed++
			st.fail("write %d: HTTP %d: %.200s", id, status, body)
			return nil
		}
		st.ingestMS = append(st.ingestMS, float64(lat)/float64(time.Millisecond))
		now := time.Since(tr.t0)
		tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Req: id, Name: "drift.ingest",
			Start: int64(now - lat), End: int64(now)})
		// Let any refit this write scheduled finish, so the replay sees
		// one database state per request.
		for _, srv := range env.servers {
			srv.Drift().Wait()
		}
		return nil
	}
	srv := env.owner(r)
	if env.clustered() {
		// Via the router (0) and direct (1); which goes first alternates,
		// so neither side always meets the state the other left behind.
		var status [2]int
		var lat [2]time.Duration
		for k := 0; k < 2; k++ {
			j, base := (id+k)%2, env.url
			if j == 1 {
				base = "http://" + srv.Addr()
			}
			var err error
			if status[j], _, lat[j], err = env.post(ctx, base, r); err != nil {
				return err
			}
		}
		if status[0]/100 != 2 || status[1]/100 != 2 {
			st.failed++
			st.fail("read %d: HTTP %d via router, %d direct", id, status[0], status[1])
			return nil
		}
		st.hops = append(st.hops, float64(lat[0]-lat[1])/float64(time.Millisecond))
	}

	var traced readPass
	var took [2]time.Duration // untraced, traced
	for k := 0; k < 2; k++ {
		on := (id+k)%2 == 1
		var t *tracer
		if on {
			t = tr
		}
		start := time.Now()
		p, err := runPass(ctx, t, srv, id, r)
		took[(id+k)%2] = time.Since(start)
		if err != nil {
			return err
		}
		if on {
			traced = p
		}
	}
	st.overhead = append(st.overhead, float64(took[1])/float64(took[0]))
	if traced.rec.Code/100 != 2 {
		st.failed++
		st.fail("read %d: HTTP %d: %.200s", id, traced.rec.Code, traced.rec.Body.String())
		return nil
	}
	st.decomposed++
	st.kdeCalls += traced.kdeCalls
	if err := compareReplay(st, id, traced.rec.Body.Bytes(), traced.want); err != nil {
		return err
	}
	if st.allocDone >= allocReads {
		return nil
	}
	st.allocDone++
	_, err := runPass(ctx, st.allocTr, srv, id, r)
	return err
}

// readPass is what one pass over a read produced.
type readPass struct {
	rec      *httptest.ResponseRecorder
	want     any // the layer-by-layer response
	kdeCalls int
}

// runPass runs a read through the handler, then, if the handler
// answered 2xx, through the handler's steps layer by layer. tr is nil
// on the untraced pass.
func runPass(ctx context.Context, tr *tracer, srv *serve.Server, id int, r *request) (readPass, error) {
	var p readPass
	tr.call("serve.handler", 0, id, func() { p.rec = handle(srv, r) })
	if p.rec.Code/100 != 2 {
		return p, nil
	}
	var err error
	p.want, p.kdeCalls, err = decompose(ctx, tr, srv, id, r)
	return p, err
}

// decompose re-runs a read's handler steps layer by layer on tr and
// returns the response they build and how many KDE mode counts ran.
func decompose(ctx context.Context, tr *tracer, srv *serve.Server, id int, r *request) (any, int, error) {
	root := tr.open("request", id)
	defer tr.close(root)
	p := srv.Predictor()
	kdeCalls := 0
	layer := func(name string, fn func()) {
		tr.call(name, root, id, fn)
		if name == "stats.kde_modes" {
			kdeCalls++
		}
	}
	var err error
	if r.kind == kindBatch {
		var q serve.BatchPredictRequest
		layer("serve.decode", func() { err = json.Unmarshal(r.body, &q) })
		if err != nil {
			return nil, 0, err
		}
		var preds []*core.Prediction
		layer("core.predict", func() {
			preds, err = p.PredictUC1ProfileBatch(ctx, q.System, profiles(q.Profiles), q.N, uc1Config(q.Model, q.Representation))
		})
		if err != nil {
			return nil, 0, err
		}
		resp := &serve.BatchPredictResponse{UseCase: 1, System: q.System, Count: len(preds)}
		for _, pr := range preds {
			one := summarize(pr, q.Bins, layer)
			resp.Results = append(resp.Results, serve.BatchResultJSON{N: one.N, Quantiles: one.Quantiles, Histogram: one.Histogram, Moments: one.Moments, Modes: one.Modes})
		}
		layer("serve.encode", func() { _, err = json.Marshal(resp) })
		return resp, kdeCalls, err
	}
	var q serve.PredictRequest
	layer("serve.decode", func() { err = json.Unmarshal(r.body, &q) })
	if err != nil {
		return nil, 0, err
	}
	var pr *core.Prediction
	layer("core.predict", func() { pr, err = predictInProcess(ctx, p, &q, r.kind) })
	if err != nil {
		return nil, 0, err
	}
	resp := summarize(pr, q.Bins, layer)
	layer("serve.encode", func() { _, err = json.Marshal(resp) })
	if err != nil {
		return nil, 0, err
	}
	distrepProbes(tr, p.DB(), id, r)
	return resp, kdeCalls, nil
}

// compareReplay checks the handler's response body against the
// layer-by-layer replay's response.
func compareReplay(st *traceState, id int, body []byte, want any) error {
	if w, ok := want.(*serve.BatchPredictResponse); ok {
		return compareBatch(st, id, body, w)
	}
	var got serve.PredictResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if d := diffSummary(&got, want.(*serve.PredictResponse)); d != "" {
		st.fail("read %d: handler and layer-by-layer replay differ: %s", id, d)
	}
	return nil
}

func compareBatch(st *traceState, id int, body []byte, want *serve.BatchPredictResponse) error {
	var got serve.BatchPredictResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if len(got.Results) != len(want.Results) {
		st.fail("batch %d: %d results, want %d", id, len(got.Results), len(want.Results))
		return nil
	}
	for i := range want.Results {
		g, w := got.Results[i], want.Results[i]
		d := diffSummary(
			&serve.PredictResponse{N: g.N, Quantiles: g.Quantiles, Histogram: g.Histogram, Moments: g.Moments, Modes: g.Modes},
			&serve.PredictResponse{N: w.N, Quantiles: w.Quantiles, Histogram: w.Histogram, Moments: w.Moments, Modes: w.Modes})
		if d != "" {
			st.fail("batch %d result %d: handler and layer-by-layer replay differ: %s", id, i, d)
		}
	}
	return nil
}

// distrepProbes decodes n = campaignRuns samples with each
// representation from the encoding of a measured sample, as a separate
// root span per decoder.
func distrepProbes(tr *tracer, db *measure.Database, id int, r *request) {
	sys := r.pred.System
	if sys == "" {
		sys = r.pred.Target
	}
	sd, _ := db.System(sys)
	sample := sd.Benchmarks[id%len(sd.Benchmarks)].RelTimes()
	for _, k := range distrepKinds {
		rep, err := distrep.New(k.kind, distrep.DefaultBins)
		if err != nil {
			continue
		}
		enc := rep.Encode(sample)
		rng := randx.New(uint64(id) + 1)
		tr.call("distrep.decode."+k.name, 0, id, func() { rep.Decode(enc, campaignRuns, rng) })
	}
}

// clusterTraceMetrics reads the tier's counters after the replay and
// returns the drift state for the drift-episode check.
func clusterTraceMetrics(ctx context.Context, env *traceEnv, st *traceState, share0 cluster.Status, set func(string, float64)) (driftState, error) {
	var replicas []string
	for _, srv := range env.servers {
		srv.Drift().Wait()
		replicas = append(replicas, "http://"+srv.Addr())
	}
	d, err := readDrift(ctx, replicas)
	if err != nil {
		return d, err
	}
	set("drift.trips", float64(d.trips))
	set("drift.refits", float64(d.refitOK))
	_, share1, err := ownerShare(ctx, env.url)
	if err != nil {
		return d, err
	}
	var total, top, failed uint64
	for i, r := range share1.Replicas {
		served := r.Served - share0.Replicas[i].Served
		total += served
		top = max(top, served)
		failed += r.Failed
	}
	if total > 0 {
		set("cluster.owner_share_max", float64(top)/float64(total))
	}
	set("cluster.failed", float64(failed))
	set("cluster.retries", float64(env.metrics.Snapshot().Counters["cluster.retries"]))
	set("cluster.hop_ms", median(st.hops))
	set("drift.ingest_ms", median(st.ingestMS))
	return d, nil
}

// layerTable summarizes the timing pass per layer: calls per
// decomposed request, per-call self-time quartiles and maximum, and the
// layer's share of the handler: the median over decomposed requests of
// the layer's self time in the request over the request's handler
// time. Medians keep a few very slow calls from swamping the shares;
// the max column shows them. trace.coverage is the median over requests
// of all coverage layers' self time over handler time. Allocations
// come from the allocation pass. It sets the per-layer time and
// allocation metrics as it goes.
func layerTable(st *traceState, set func(string, float64)) string {
	self := st.tr.selfTimes()
	type agg struct{ ms, allocs, bytes []float64 }
	layers := map[string]*agg{}
	perReq := map[int]map[string]float64{} // request -> layer -> self ms
	for i := range st.tr.spans {
		s := &st.tr.spans[i]
		a := layers[s.Name]
		if a == nil {
			a = &agg{}
			layers[s.Name] = a
		}
		ms := float64(self[i]) / float64(time.Millisecond)
		a.ms = append(a.ms, ms)
		if s.Req >= 0 && (s.Name == "serve.handler" || contains(coverageLayers, s.Name)) {
			if perReq[s.Req] == nil {
				perReq[s.Req] = map[string]float64{}
			}
			perReq[s.Req][s.Name] += ms
		}
	}
	for i := range st.allocTr.spans {
		s := &st.allocTr.spans[i]
		if a := layers[s.Name]; a != nil {
			a.allocs = append(a.allocs, float64(s.Allocs))
			a.bytes = append(a.bytes, float64(s.Bytes))
		}
	}
	shares := map[string][]float64{"serve.handler": {1}}
	var coverage []float64
	for _, l := range perReq {
		h := l["serve.handler"]
		if h <= 0 || len(l) < 2 {
			continue // a write, or a read that failed
		}
		sum := 0.0
		for _, name := range coverageLayers {
			shares[name] = append(shares[name], l[name]/h)
			sum += l[name]
		}
		coverage = append(coverage, sum/h)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  %-26s %9s %10s %10s %10s %10s %8s %8s %10s\n",
		"layer (self time, ms)", "calls/req", "median", "q1", "q3", "max", "share", "allocs", "bytes")
	order := append([]string{"serve.handler"}, coverageLayers...)
	for _, k := range distrepKinds {
		order = append(order, "distrep.decode."+k.name)
	}
	order = append(order, "drift.ingest", "measure.collect")
	for _, name := range order {
		a := layers[name]
		if a == nil {
			continue
		}
		q := quartiles(a.ms)
		share := "-"
		if sh := shares[name]; len(sh) > 0 {
			share = pct(median(sh))
		}
		allocs, bytes := "-", "-"
		if len(a.allocs) > 0 {
			allocs, bytes = fmt.Sprintf("%.0f", median(a.allocs)), fmt.Sprintf("%.0f", median(a.bytes))
		}
		fmt.Fprintf(&b, "  %-26s %9.2f %10.4f %10.4f %10.4f %10.4f %8s %8s %10s\n",
			name, float64(len(a.ms))/float64(max(st.decomposed, 1)), q[1], q[0], q[2], slices.Max(a.ms), share, allocs, bytes)
		if metricName, scale := layerMetric(name); metricName != "" {
			set(metricName, q[1]*scale)
		}
		if contains(allocLayers, name) && len(a.allocs) > 0 {
			set(name+".allocs", median(a.allocs))
			set(name+".bytes", median(a.bytes))
		}
	}
	if len(coverage) > 0 {
		set("trace.coverage", median(coverage))
		fmt.Fprintf(&b, "  %-26s %9s %10.4f %10.4f %10.4f   (all layers' self time over the handler's, per request)\n",
			"trace.coverage", "", median(coverage), quartiles(coverage)[0], quartiles(coverage)[2])
	}
	if len(st.overhead) > 0 {
		q := quartiles(st.overhead)
		fmt.Fprintf(&b, "  %-26s %9s %10.4f %10.4f %10.4f   (traced over untraced pass time, per read)\n",
			"trace.overhead", "", q[1], q[0], q[2])
	}
	return b.String()
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// layerMetric maps a span name to its per-layer time metric and the
// factor from milliseconds to the metric's unit.
func layerMetric(span string) (string, float64) {
	switch span {
	case "serve.handler":
		return "serve.handler_ms", 1
	case "serve.decode":
		return "serve.decode_us", 1000
	case "serve.encode":
		return "serve.encode_us", 1000
	case "core.predict":
		return "core.predict_ms", 1
	case "stats.kde_modes":
		return "stats.kde_modes_ms", 1
	case "stats.ksw1":
		return "stats.ksw1_us", 1000
	case "stats.summary_other":
		return "stats.summary_other_us", 1000
	}
	if k, ok := strings.CutPrefix(span, "distrep.decode."); ok {
		return "distrep.decode_us." + k, 1000
	}
	return "", 0
}

// perLayerUnits is every per-layer metric of BENCHMARK.json with its
// unit.
var perLayerUnits = func() map[string]string {
	m := map[string]string{
		"serve.handler_ms": "ms", "serve.decode_us": "us", "serve.encode_us": "us",
		"core.predict_ms": "ms", "core.cache_hit_ratio": "ratio",
		"ml.fit_s":           "s",
		"stats.kde_modes_ms": "ms", "stats.kde_calls_per_req": "count",
		"stats.ksw1_us": "us", "stats.summary_other_us": "us",
		"measure.collect_s": "s",
		"drift.ingest_ms":   "ms", "drift.trips": "count", "drift.refits": "count",
		"cluster.hop_ms": "ms", "cluster.owner_share_max": "ratio",
		"cluster.retries": "count", "cluster.failed": "count",
		"knn.sse_slowdown": "ratio",
		"trace.coverage":   "ratio", "trace.overhead": "ratio",
	}
	for _, k := range distrepKinds {
		m["distrep.decode_us."+k.name] = "us"
	}
	for _, l := range allocLayers {
		m[l+".allocs"] = "count"
		m[l+".bytes"] = "count"
	}
	return m
}()

func perLayerNames() []string {
	names := make([]string, 0, len(perLayerUnits))
	for n := range perLayerUnits {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return quartiles(xs)[1] }

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) [3]float64 {
	if len(xs) == 0 {
		return [3]float64{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return [3]float64{percentile(s, 0.25), percentile(s, 0.5), percentile(s, 0.75)}
}
