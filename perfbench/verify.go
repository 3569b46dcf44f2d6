package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/distrep"
	"repro/internal/measure"
	"repro/internal/perfsim"
	"repro/internal/serve"
	"repro/internal/stats"
)

// The handler's response summaries (internal/serve/handlers.go),
// recomputed here from the same stats calls in the same order.
var quantilePoints = []struct {
	name string
	q    float64
}{
	{"p1", 0.01}, {"p5", 0.05}, {"p25", 0.25}, {"p50", 0.50},
	{"p75", 0.75}, {"p90", 0.90}, {"p95", 0.95}, {"p99", 0.99},
}

func quantileMap(xs []float64) map[string]float64 {
	qs := make([]float64, len(quantilePoints))
	for i, p := range quantilePoints {
		qs[i] = p.q
	}
	vals := stats.Quantiles(xs, qs)
	out := make(map[string]float64, len(quantilePoints))
	for i, p := range quantilePoints {
		out[p.name] = vals[i]
	}
	return out
}

func histogramJSON(xs []float64, bins int) *serve.HistogramJSON {
	if bins <= 0 {
		bins = 50
	}
	lo, hi := stats.MinMax(xs)
	if hi <= lo {
		hi = lo + 1e-9
	}
	h := stats.HistogramFromSample(xs, lo, hi, bins)
	density := make([]float64, bins)
	for i := range density {
		density[i] = h.Density(i)
	}
	return &serve.HistogramJSON{Lo: h.Lo, Hi: h.Hi, BinWidth: h.BinWidth(), Density: density}
}

func momentsJSON(xs []float64) serve.MomentsJSON {
	m := stats.ComputeMoments4(xs)
	return serve.MomentsJSON{Mean: m.Mean, Std: m.Std, Skew: m.Skew, Kurt: m.Kurt}
}

func countModes(xs []float64) int {
	if stats.StdDev(xs) == 0 {
		return 1
	}
	return stats.NewKDE(xs).CountModes(512, 0.1)
}

// summarize is the handler's buildResponse: the same stats calls in the
// same order. layer runs each group of calls under its layer's name: the
// traced run records a span per group, the output check passes runLayer.
func summarize(p *core.Prediction, bins int, layer func(name string, fn func())) *serve.PredictResponse {
	r := &serve.PredictResponse{N: len(p.Predicted)}
	layer("stats.summary_other", func() {
		r.Quantiles = quantileMap(p.Predicted)
		r.Histogram = histogramJSON(p.Predicted, bins)
		r.Moments = momentsJSON(p.Predicted)
	})
	layer("stats.kde_modes", func() { r.Modes = countModes(p.Predicted) })
	if p.Actual == nil {
		return r
	}
	var ks, w1 float64
	layer("stats.ksw1", func() {
		ks = stats.KSStatistic(p.Predicted, p.Actual)
		w1 = stats.Wasserstein1(p.Predicted, p.Actual)
	})
	r.KSVsMeasured, r.W1VsMeasured = &ks, &w1
	r.Measured = &serve.MeasuredJSON{N: len(p.Actual)}
	layer("stats.summary_other", func() { r.Measured.Moments = momentsJSON(p.Actual) })
	layer("stats.kde_modes", func() { r.Measured.Modes = countModes(p.Actual) })
	return r
}

// runLayer runs fn with nothing around it.
func runLayer(_ string, fn func()) { fn() }

// diffSummary names the first field where got and want differ bit for
// bit ("" when they agree).
func diffSummary(got, want *serve.PredictResponse) string {
	if got.N != want.N {
		return fmt.Sprintf("n %d, want %d", got.N, want.N)
	}
	for _, p := range quantilePoints {
		if g, ok := got.Quantiles[p.name]; !ok || !same(g, want.Quantiles[p.name]) {
			return fmt.Sprintf("quantiles.%s %v, want %v", p.name, g, want.Quantiles[p.name])
		}
	}
	if d := diffHistogram(got.Histogram, want.Histogram); d != "" {
		return d
	}
	if d := diffMoments("moments", got.Moments, want.Moments); d != "" {
		return d
	}
	if got.Modes != want.Modes {
		return fmt.Sprintf("modes %d, want %d", got.Modes, want.Modes)
	}
	if d := diffOpt("ks_vs_measured", got.KSVsMeasured, want.KSVsMeasured); d != "" {
		return d
	}
	if d := diffOpt("w1_vs_measured", got.W1VsMeasured, want.W1VsMeasured); d != "" {
		return d
	}
	if (got.Measured == nil) != (want.Measured == nil) {
		return fmt.Sprintf("measured present %v, want %v", got.Measured != nil, want.Measured != nil)
	}
	if want.Measured != nil {
		if got.Measured.N != want.Measured.N || got.Measured.Modes != want.Measured.Modes {
			return fmt.Sprintf("measured n/modes %d/%d, want %d/%d", got.Measured.N, got.Measured.Modes, want.Measured.N, want.Measured.Modes)
		}
		return diffMoments("measured.moments", got.Measured.Moments, want.Measured.Moments)
	}
	return ""
}

func diffHistogram(got, want *serve.HistogramJSON) string {
	if got == nil || len(got.Density) != len(want.Density) {
		return "histogram missing or of another bin count"
	}
	if !same(got.Lo, want.Lo) || !same(got.Hi, want.Hi) || !same(got.BinWidth, want.BinWidth) {
		return fmt.Sprintf("histogram support [%v,%v], want [%v,%v]", got.Lo, got.Hi, want.Lo, want.Hi)
	}
	for i := range want.Density {
		if !same(got.Density[i], want.Density[i]) {
			return fmt.Sprintf("histogram.density[%d] %v, want %v", i, got.Density[i], want.Density[i])
		}
	}
	return ""
}

func diffMoments(field string, got, want serve.MomentsJSON) string {
	g := [4]float64{got.Mean, got.Std, got.Skew, got.Kurt}
	w := [4]float64{want.Mean, want.Std, want.Skew, want.Kurt}
	for i, name := range []string{"mean", "std", "skew", "kurt"} {
		if !same(g[i], w[i]) {
			return fmt.Sprintf("%s.%s %v, want %v", field, name, g[i], w[i])
		}
	}
	return ""
}

func diffOpt(field string, got, want *float64) string {
	switch {
	case (got == nil) != (want == nil):
		return fmt.Sprintf("%s present %v, want %v", field, got != nil, want != nil)
	case got != nil && !same(*got, *want):
		return fmt.Sprintf("%s %v, want %v", field, *got, *want)
	}
	return ""
}

func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// pickChecked chooses the seeded subset of stream positions whose
// responses the output check recomputes: a few early positions per
// client, plus for uc1_profile the first batch and for cluster_mixed
// the first drift write.
func pickChecked(workload string, seed uint64, streams []*stream) map[[2]int]bool {
	const perClient, window = 3, 48
	rng := rand.New(rand.NewPCG(seed, 0xC4EC))
	keep := map[[2]int]bool{}
	for c, s := range streams {
		n := min(window, len(s.reqs))
		for _, i := range rng.Perm(n)[:min(perClient, n)] {
			keep[[2]int{c, i}] = true
		}
	}
	switch workload {
	case wlProfile:
		keep[[2]int{0, batchEvery - 1}] = true
	case wlCluster:
		keep[[2]int{0, 3}] = true
	}
	return keep
}

// checker recomputes responses in-process. For cluster_mixed a read may
// have been answered before or after its replica refitted the drifted
// cells, so every database state the drift episode can produce is a
// valid answer: one predictor per subset of drifted systems.
type checker struct {
	db     *measure.Database
	merged map[string][]perfsim.Run // system -> drift cell's post-refit runs

	mu    sync.Mutex
	preds map[int]*core.Predictor // drifted-system bit mask -> predictor
}

func newChecker(db *measure.Database, streams []*stream) *checker {
	ch := &checker{db: db, preds: map[int]*core.Predictor{}, merged: map[string][]perfsim.Run{}}
	for _, r := range streams[0].reqs {
		if !r.drifted {
			continue
		}
		sys := r.write.System
		if ch.merged[sys] == nil {
			sd, _ := db.System(sys)
			b, _ := sd.Find(r.write.Benchmark)
			ch.merged[sys] = perfsim.CloneRuns(b.Runs)
		}
		for _, w := range r.write.Runs {
			ch.merged[sys] = append(ch.merged[sys], perfsim.Run{Seconds: w.Seconds, Metrics: w.Metrics})
		}
	}
	return ch
}

func (ch *checker) predictor(mask int) (*core.Predictor, error) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if p := ch.preds[mask]; p != nil {
		return p, nil
	}
	p := core.NewPredictor(ch.db)
	for s := range ch.db.Systems {
		sd := &ch.db.Systems[s]
		if mask&(1<<s) != 0 {
			if err := p.SetBenchmarkRuns(sd.SystemName, driftCell(sd), ch.merged[sd.SystemName]); err != nil {
				return nil, err
			}
		}
	}
	ch.preds[mask] = p
	return p, nil
}

// masks lists the database states a read may have been answered from.
func (ch *checker) masks(r *request) []int {
	if len(ch.merged) == 0 {
		return []int{0}
	}
	if r.kind == kindUC2 {
		return []int{3, 1, 2, 0}
	}
	for s := range ch.db.Systems {
		if ch.db.Systems[s].SystemName == r.pred.System {
			return []int{1 << s, 0}
		}
	}
	return []int{0}
}

// check recomputes one kept response and reports any difference.
func (ch *checker) check(ctx context.Context, r *request, body []byte) error {
	switch r.kind {
	case kindWrite:
		var got serve.MeasurementsResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("decode response: %w", err)
		}
		if got.Accepted != len(r.write.Runs) || got.Quarantined != 0 {
			return fmt.Errorf("accepted %d quarantined %d of %d clean runs", got.Accepted, got.Quarantined, len(r.write.Runs))
		}
		return nil
	case kindBatch:
		var got serve.BatchPredictResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("decode response: %w", err)
		}
		p, _ := ch.predictor(0)
		preds, err := p.PredictUC1ProfileBatch(ctx, r.batch.System, profiles(r.batch.Profiles), 0, uc1Config(r.batch.Model, r.batch.Representation))
		if err != nil {
			return err
		}
		if len(got.Results) != len(preds) {
			return fmt.Errorf("%d results, want %d", len(got.Results), len(preds))
		}
		for i, pr := range preds {
			res := got.Results[i]
			gotOne := &serve.PredictResponse{N: res.N, Quantiles: res.Quantiles, Histogram: res.Histogram, Moments: res.Moments, Modes: res.Modes}
			if d := diffSummary(gotOne, summarize(pr, r.batch.Bins, runLayer)); d != "" {
				return fmt.Errorf("result %d: %s", i, d)
			}
		}
		return nil
	}
	var got serve.PredictResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	var first string
	for _, mask := range ch.masks(r) {
		p, err := ch.predictor(mask)
		if err != nil {
			return err
		}
		pr, err := predictInProcess(ctx, p, r.pred, r.kind)
		if err != nil {
			return err
		}
		d := diffSummary(&got, summarize(pr, r.pred.Bins, runLayer))
		if d == "" {
			return nil
		}
		if first == "" {
			first = d
		}
	}
	return fmt.Errorf("%s", first)
}

// predictInProcess calls the predictor entry point the handler would.
func predictInProcess(ctx context.Context, p *core.Predictor, q *serve.PredictRequest, k kind) (*core.Prediction, error) {
	switch k {
	case kindUC1:
		return p.PredictUC1(ctx, q.System, q.Benchmark, uc1Config(q.Model, q.Representation))
	case kindUC2:
		return p.PredictUC2(ctx, q.Source, q.Target, q.Benchmark, core.UC2Config{Rep: parseRep(q.Representation), Model: parseModel(q.Model), Seed: 1})
	default:
		return p.PredictUC1Profile(ctx, q.System, toRuns(q.ProbeRuns), 0, uc1Config(q.Model, q.Representation))
	}
}

// uc1Config is the handler's UC1 configuration for a request naming
// only model and representation.
func uc1Config(model, rep string) core.UC1Config {
	return core.UC1Config{Rep: parseRep(rep), Model: parseModel(model), NumSamples: probeRunsPerProfile, Seed: 1}
}

func parseModel(name string) core.Model {
	switch name {
	case "rf":
		return core.RandomForest
	case "xgboost":
		return core.XGBoost
	}
	return core.KNN
}

func parseRep(name string) distrep.Kind {
	switch name {
	case "histogram":
		return distrep.Histogram
	case "pymaxent":
		return distrep.MaxEnt
	}
	return distrep.PearsonRnd
}

func toRuns(prs []serve.ProbeRun) []perfsim.Run {
	runs := make([]perfsim.Run, len(prs))
	for i, pr := range prs {
		runs[i] = perfsim.Run{Seconds: pr.Seconds, Metrics: pr.Metrics}
	}
	return runs
}

func profiles(ps [][]serve.ProbeRun) [][]perfsim.Run {
	out := make([][]perfsim.Run, len(ps))
	for i, p := range ps {
		out[i] = toRuns(p)
	}
	return out
}

// checkAll recomputes every kept response on `workers` goroutines and
// returns the mismatches, sorted.
func checkAll(ctx context.Context, ch *checker, streams []*stream, kept map[[2]int][]byte, workers int) (checked int, errs []string) {
	keys := make([][2]int, 0, len(kept))
	for k := range kept {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
	})
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan [2]int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				r := streams[k[0]].at(k[1])
				if err := ch.check(ctx, r, kept[k]); err != nil {
					mu.Lock()
					errs = append(errs, fmt.Sprintf("client %d request %d (POST %s): %v", k[0], k[1], r.path(), err))
					mu.Unlock()
				}
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	sort.Strings(errs)
	return len(keys), errs
}
