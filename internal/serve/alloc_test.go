package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// warmUC1RequestAllocBudget is one warm database-row UC1 request, kNN
// with PearsonRnd, through Handler().ServeHTTP, at the measured count
// (50.0 on Go 1.24; 66.0 before the quantile map encoded itself, 72.0
// before a hit read its dataset and model slot without allocating,
// 82-83 before each model kept its answer). A -memprofilerate 1
// profile of the measured requests attributed 58 of the 66:
//   - 12 in the predictor, on the worker goroutine: 9 for its spans
//     and their attributes, 1 Prediction and 2 more in PredictUC1; the
//     sync.Map dataset and model-slot lookups allocate nothing on a hit;
//   - 14 encoding the response, 12 of them reflect copies of the
//     quantile map's keys and values (Quantiles.MarshalJSON now makes
//     one buffer instead of those 12 and its own);
//   - 10 for the summaries: the response and its measured block 3,
//     the quantile map 3, the histogram 4;
//   - 14 in the rest of the handler: the body read and its
//     MaxBytesReader, the decoded strings, the deadline context and
//     its timer, and onWorker's work closure, goroutine closure and
//     channel;
//   - 8 in the instrumenting middleware: the root span, its context
//     and the request copy that carries it, and the route metrics.
//
// The other 8 do not appear in the profile.
const warmUC1RequestAllocBudget = 50

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status, so a measured request counts the handler's allocations and
// not a recorder's buffer growth.
type discardWriter struct {
	header http.Header
	code   int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(code int) { w.code = code }

func (w *discardWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.n += len(b)
	return len(b), nil
}

// TestWarmUC1RequestAllocs holds a warm database-row UC1 request to its
// allocation budget: the whole handler, from the body read to the
// encoded response, cycling over every benchmark of the test campaign
// so each request reads a different model's answer.
func TestWarmUC1RequestAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector defeats sync.Pool caching; alloc counts are meaningless")
	}
	db := testCampaign(t)
	s := newTestServer(t)
	h := s.Handler()
	sd := db.Systems[0]
	type probe struct {
		req  *http.Request
		body *strings.Reader
	}
	probes := make([]probe, len(sd.Benchmarks))
	for i := range sd.Benchmarks {
		body := strings.NewReader(fmt.Sprintf(`{"system":%q,"benchmark":%q,"model":"knn","representation":"pearsonrnd"}`,
			sd.SystemName, sd.Benchmarks[i].Workload.ID()))
		probes[i] = probe{req: httptest.NewRequest(http.MethodPost, "/v1/predict/uc1", body), body: body}
		// Fit the model, then check that the next request is a warm hit.
		for pass := 0; pass < 2; pass++ {
			body.Seek(0, 0)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, probes[i].req)
			var resp PredictResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
				t.Fatalf("%s: %d %v %s", sd.Benchmarks[i].Workload.ID(), rec.Code, err, rec.Body.String())
			}
			if pass == 1 && resp.Cache != "hit" {
				t.Fatalf("%s: second request was a cache %s", sd.Benchmarks[i].Workload.ID(), resp.Cache)
			}
		}
	}
	w := &discardWriter{header: http.Header{}}
	next := 0
	serve := func() {
		p := probes[next%len(probes)]
		next++
		p.body.Seek(0, 0)
		w.code = 0
		h.ServeHTTP(w, p.req)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runs := 4 * len(probes)
	got := testing.AllocsPerRun(runs, serve)
	runtime.ReadMemStats(&after)
	if w.code != http.StatusOK {
		t.Fatalf("measured request answered %d", w.code)
	}
	kb := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs+1) / 1024
	t.Logf("%.1f allocs and %.1f KB per warm UC1 request over %d benchmarks", got, kb, len(probes))
	if got > warmUC1RequestAllocBudget {
		t.Errorf("warm UC1 request allocated %.1f times, budget %d", got, warmUC1RequestAllocBudget)
	}
}

// warmProfileRequestAllocBudget holds one warm raw-profile UC1 request
// per model × decoder cell to its measured count on Go 1.24, through
// Handler().ServeHTTP, with a 10-run probe profile and the campaign's
// default decode size. The counts were 362-416 while every profile
// built its 272 feature names and the quantile map went through
// encoding/json's map encoder. PyMaxEnt's cells count its Newton
// solve's allocations, which depend on the fitted model's output.
var warmProfileRequestAllocBudget = map[string]int{
	"knn/pearsonrnd":     79,
	"knn/histogram":      78,
	"knn/pymaxent":       88,
	"rf/pearsonrnd":      79,
	"rf/histogram":       78,
	"rf/pymaxent":        132,
	"xgboost/pearsonrnd": 79,
	"xgboost/histogram":  78,
	"xgboost/pymaxent":   124,
}

// TestWarmProfileRequestAllocs holds a warm raw-profile UC1 request
// (the paper's query for an application the database has never seen)
// to its allocation budget in every model × decoder cell: the body
// read, the profile's features, inference, decoding, the summary and
// the encoded response.
func TestWarmProfileRequestAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector defeats sync.Pool caching; alloc counts are meaningless")
	}
	db := testCampaign(t)
	s := newTestServer(t)
	h := s.Handler()
	sd := db.Systems[0]
	probe := benchProbeRuns(db, sd.SystemName, sd.Benchmarks[0].Workload.ID(), 1)[:10]
	for _, model := range []string{"knn", "rf", "xgboost"} {
		for _, rep := range []string{"pearsonrnd", "histogram", "pymaxent"} {
			cell := model + "/" + rep
			body := strings.NewReader(string(mustMarshal(&PredictRequest{System: sd.SystemName, ProbeRuns: probe, Model: model, Representation: rep})))
			req := httptest.NewRequest(http.MethodPost, "/v1/predict/uc1", body)
			for pass := 0; pass < 2; pass++ {
				body.Seek(0, 0)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				var resp PredictResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
					t.Fatalf("%s: %d %v %s", cell, rec.Code, err, rec.Body.String())
				}
				if pass == 1 && resp.Cache != "hit" {
					t.Fatalf("%s: second request was a cache %s", cell, resp.Cache)
				}
			}
			w := &discardWriter{header: http.Header{}}
			got := testing.AllocsPerRun(20, func() {
				body.Seek(0, 0)
				w.code = 0
				h.ServeHTTP(w, req)
			})
			if w.code != http.StatusOK {
				t.Fatalf("%s: measured request answered %d", cell, w.code)
			}
			budget := warmProfileRequestAllocBudget[cell]
			t.Logf("%s: %.1f allocs per warm profile request, budget %d", cell, got, budget)
			if got > float64(budget) {
				t.Errorf("%s: warm profile request allocated %.1f times, budget %d", cell, got, budget)
			}
		}
	}
}
