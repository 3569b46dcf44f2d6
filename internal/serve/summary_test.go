package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distrep"
	"repro/internal/stats"
)

// freshMeasured recomputes the measured half of a response from
// p.Actual with the unsorted-sample stats calls, independent of the
// per-snapshot summary.
func freshMeasured(p *core.Prediction) (ks, w1 float64, m MeasuredJSON) {
	modes := 1
	if stats.StdDev(p.Actual) != 0 {
		modes = stats.NewKDE(p.Actual).CountModes(512, 0.1)
	}
	mo := stats.ComputeMoments4(p.Actual)
	return stats.KSStatistic(p.Predicted, p.Actual), stats.Wasserstein1(p.Predicted, p.Actual),
		MeasuredJSON{N: len(p.Actual), Moments: MomentsJSON{Mean: mo.Mean, Std: mo.Std, Skew: mo.Skew, Kurt: mo.Kurt}, Modes: modes}
}

// predictMeasured sends body to the use case's endpoint, predicts the
// same request in process for its p.Actual, and checks that the served
// measured block and KS/W1 scores equal a fresh recomputation from
// p.Actual, bit for bit. It returns the in-process prediction.
func predictMeasured(t *testing.T, s *Server, useCase int, body string) *core.Prediction {
	t.Helper()
	rec, _ := post(t, s, fmt.Sprintf("/v1/predict/uc%d", useCase), body)
	if rec.Code != http.StatusOK {
		t.Fatalf("uc%d %s: %d %s", useCase, body, rec.Code, rec.Body.String())
	}
	var served PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil {
		t.Fatal(err)
	}
	var req PredictRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	model, _ := core.ParseModel(req.Model)
	rep, _ := distrep.ParseKind(req.Representation)
	p, err := s.predict(context.Background(), &req, useCase, model, rep)
	if err != nil {
		t.Fatal(err)
	}
	if p.Measured == nil || !reflect.DeepEqual(p.Measured.Sorted, stats.SortedCopy(p.Actual)) {
		t.Fatalf("uc%d: summary does not hold the sorted p.Actual", useCase)
	}
	ks, w1, m := freshMeasured(p)
	for _, resp := range []*PredictResponse{&served, buildResponse(&req, useCase, p)} {
		if resp.Measured == nil || resp.KSVsMeasured == nil || resp.W1VsMeasured == nil {
			t.Fatalf("uc%d: measured block missing: %+v", useCase, resp)
		}
		if *resp.Measured != m {
			t.Errorf("uc%d measured = %+v, fresh recomputation %+v", useCase, *resp.Measured, m)
		}
		if math.Float64bits(*resp.KSVsMeasured) != math.Float64bits(ks) ||
			math.Float64bits(*resp.W1VsMeasured) != math.Float64bits(w1) {
			t.Errorf("uc%d ks/w1 = %v/%v, fresh recomputation %v/%v",
				useCase, *resp.KSVsMeasured, *resp.W1VsMeasured, ks, w1)
		}
	}
	return p
}

// TestMeasuredSummaryMatchesActual pins the per-snapshot measured
// summary to the sample it describes, for UC1 and UC2, before and after
// an ingest → trip → refit replaces the benchmark's measured runs.
func TestMeasuredSummaryMatchesActual(t *testing.T) {
	s := driftTestServer(t)
	bench := firstBench(testDB)
	uc1 := fmt.Sprintf(`{"system":"intel","benchmark":%q,"seed":7}`, bench)
	uc2 := fmt.Sprintf(`{"source":"amd","target":"intel","benchmark":%q,"seed":7}`, bench)
	before1 := predictMeasured(t, s, 1, uc1)
	before2 := predictMeasured(t, s, 2, uc2)
	// Twice: the second request reads the summary the first one built.
	predictMeasured(t, s, 1, uc1)

	snap := s.pred.DB()
	tripCell(t, s, bench)
	s.Drift().Wait()
	if s.pred.DB() == snap {
		t.Fatal("refit did not swap in a new snapshot")
	}

	after1 := predictMeasured(t, s, 1, uc1)
	after2 := predictMeasured(t, s, 2, uc2)
	if reflect.DeepEqual(before1.Actual, after1.Actual) || reflect.DeepEqual(before2.Actual, after2.Actual) {
		t.Fatal("refit left the benchmark's measured sample unchanged")
	}
	if before1.Measured == after1.Measured || before2.Measured == after2.Measured {
		t.Error("the new snapshot reused the old snapshot's summary")
	}
}

// TestMeasuredSummaryConcurrentFirstUse sends the first requests for
// one benchmark from several goroutines at once: they race to build
// the row's summary, and every answer must still be the one a fresh
// recomputation gives.
func TestMeasuredSummaryConcurrentFirstUse(t *testing.T) {
	s := newTestServer(t)
	body := fmt.Sprintf(`{"system":"intel","benchmark":%q,"seed":7}`, testDB.Systems[0].Benchmarks[2].Workload.ID())
	bodies := make([]string, 8)
	var wg sync.WaitGroup
	for g := range bodies {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/v1/predict/uc1", strings.NewReader(body))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			bodies[g] = rec.Body.String()
		}(g)
	}
	wg.Wait()
	want := predictMeasured(t, s, 1, body)
	ks, w1, m := freshMeasured(want)
	for g, b := range bodies {
		var got PredictResponse
		if err := json.Unmarshal([]byte(b), &got); err != nil {
			t.Fatalf("goroutine %d: %v: %s", g, err, b)
		}
		if got.Measured == nil || *got.Measured != m || *got.KSVsMeasured != ks || *got.W1VsMeasured != w1 {
			t.Errorf("goroutine %d: measured %+v ks %v w1 %v, want %+v %v %v", g, got.Measured, got.KSVsMeasured, got.W1VsMeasured, m, ks, w1)
		}
	}
}

// BenchmarkBuildResponse renders one UC1 response the longest way
// buildResponse knows: a 1,000-sample prediction with its measured
// summary attached but no PredictedSummary, so the call builds the
// predicted sample's summary as a profile request does.
func BenchmarkBuildResponse(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	pred, actual := make([]float64, 1000), make([]float64, 1000)
	for i := range pred {
		pred[i] = 1 + 0.05*rng.NormFloat64()
		actual[i] = 1 + 0.05*rng.NormFloat64()
	}
	p := &core.Prediction{Predicted: pred, Actual: actual, Measured: core.NewSampleSummary(actual)}
	req := &PredictRequest{System: "intel", Benchmark: "npb/bt", Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = buildResponse(req, 1, p)
	}
}

// TestQuantilesEncodingMatchesMap byte-compares Quantiles' encoding with
// encoding/json's for the same map[string]float64, alone and inside a
// response, over values of every magnitude json formats differently.
func TestQuantilesEncodingMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	values := []float64{0, math.Copysign(0, -1), 1, -1, 1e-7, -1e-7, 1e-6, 9.999999e-7, 1e21, 1e20, -3e-300,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, 1.0000000000000002, 123456789.125}
	maps := []map[string]float64{nil, {}, {"p50": 1}}
	for i := 0; i < 200; i++ {
		m := make(map[string]float64, len(quantilePoints))
		for _, p := range quantilePoints {
			if i%2 == 0 {
				m[p.name] = values[rng.IntN(len(values))]
			} else {
				m[p.name] = (rng.NormFloat64() + 1) * math.Pow(10, float64(rng.IntN(40)-20))
			}
		}
		maps = append(maps, m)
	}
	maps = append(maps, map[string]float64{"a<b": 1, "é": 2, "p1": math.NaN()}, map[string]float64{"x\"y": 3})
	for _, m := range maps {
		want, wantErr := json.Marshal(m)
		got, gotErr := json.Marshal(Quantiles(m))
		if (wantErr != nil) != (gotErr != nil) || string(got) != string(want) {
			t.Fatalf("map %v: Quantiles encodes %s (%v), encoding/json %s (%v)", m, got, gotErr, want, wantErr)
		}
		if wantErr != nil {
			continue
		}
		resp := PredictResponse{Model: "kNN", Histogram: &HistogramJSON{}}
		empty, _ := json.Marshal(resp)
		resp.Quantiles = m
		got, _ = json.Marshal(resp)
		if want := strings.Replace(string(empty), `"quantiles":null`, `"quantiles":`+string(want), 1); string(got) != want {
			t.Fatalf("response: %s, with encoding/json's map %s", got, want)
		}
	}
}

// BenchmarkServeUC1ProfileWarm sends warm raw-profile UC1 requests
// through the real handler, cycling over the nine model × decoder
// cells, each decoding 1,000 samples as the paper-scale service does:
// the whole request from the body read to the encoded response.
func BenchmarkServeUC1ProfileWarm(b *testing.B) {
	db := testCampaign(b)
	s := New(db, Config{Workers: 2, RequestTimeout: time.Minute})
	h := s.Handler()
	sd := db.Systems[0]
	type cell struct {
		req  *http.Request
		body *strings.Reader
	}
	var cells []cell
	for _, model := range []string{"knn", "rf", "xgboost"} {
		for _, rep := range []string{"pearsonrnd", "histogram", "pymaxent"} {
			for i := range 4 {
				probe := benchProbeRuns(db, sd.SystemName, sd.Benchmarks[i].Workload.ID(), 1)[:10]
				body := strings.NewReader(string(mustMarshal(&PredictRequest{
					System: sd.SystemName, ProbeRuns: probe, Model: model, Representation: rep, N: 1000,
				})))
				c := cell{req: httptest.NewRequest(http.MethodPost, "/v1/predict/uc1", body), body: body}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, c.req)
				if rec.Code != http.StatusOK {
					b.Fatalf("%s/%s: %d %s", model, rep, rec.Code, rec.Body.String())
				}
				cells = append(cells, c)
			}
		}
	}
	w := &discardWriter{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cells[i%len(cells)]
		c.body.Seek(0, 0)
		w.code = 0
		h.ServeHTTP(w, c.req)
		if w.code != http.StatusOK {
			b.Fatalf("request answered %d", w.code)
		}
	}
}
