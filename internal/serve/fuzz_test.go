package serve

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"repro/internal/measure"
	"repro/internal/perfsim"
	"repro/internal/wire"
)

// decodeEdgeCases are bodies at the edges of the one-pass reader, shared
// by every decode fuzz target: each one either takes the reader's path
// or is declined to json.Unmarshal.
var decodeEdgeCases = []string{
	`{"sys\u0074em":"intel","benchmark":"npb/bt"}`,
	`{"system":"int\u0065l","benchmark":"npb/bt"}`,
	`{"System":"intel","benchmark":"npb/bt"}`,
	`{"system":"intel","SYSTEM":"amd"}`,
	`{"system":"intel","system":"amd"}`,
	`{"system":"intel","benchmark":null,"runs":null,"profiles":null,"probe_runs":null}`,
	`{"system":"intel","runs":[{"seconds":-0,"metrics":[-0,0,-0.0]}],"probe_runs":[{"seconds":-0}],"profiles":[[{"seconds":-0}]]}`,
	`{"runs":[{"seconds":1e308,"metrics":[1e308,-1e308,4.9e-324,1e-400]}],"source_rel_times":[1e308],"probe_runs":[{"seconds":1e308}]}`,
	`{"runs":[{"seconds":1e309}],"source_rel_times":[1e309],"probe_runs":[{"seconds":1e309}]}`,
	`{"system":"intel","samples":1.0,"bins":1e2,"n":9223372036854775808}`,
	`{"system":"intel","seed":-1}`,
	`{"system":"intel","seed":18446744073709551616}`,
	`{"system":"intel"} x`,
	`{"system":"intel"}{}`,
	` {"system":"intel","benchmark":"npb/bt"}` + "\n\t",
	`{"system":"intel","extra":{"a":[1,true,false,"x",{"b":-2.5e-3}]},"runs":[]}`,
	`{"system":"intel","extra":[01]}`,
	`{"system":"intel","extra":[1.]}`,
	`{"system":"intel","extra":[.5]}`,
	`{"system":"intel","extra":[1e]}`,
	`{"system":"intel","extra":[+1]}`,
	`{"system":"caf\u00e9","model":"Ｘ"}`,
	"{\"system\":\"caf\xc3\xa9\"}",
	"{\"system\":\"\xff\"}",
	`{"system":"intel","extra":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
	`{"system":"intel","extra":` + strings.Repeat(`{"a":`, 70) + `1` + strings.Repeat(`}`, 70) + `}`,
}

// sameBits reports whether a and b hold the same value, with floats
// compared by their bits (so -0 differs from 0) and a nil slice told
// apart from an empty one.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

// checkDecode is the differential property of every decode fuzz target.
// When the one-pass reader accepts data, json.Unmarshal must accept it
// too and give the same value bit for bit. Whatever the reader does,
// decode must return json.Unmarshal's value and error. It returns the
// decoded request, or nil when decoding failed.
func checkDecode[T any](t *testing.T, data []byte, read func(*wire.Reader, *T), decode func([]byte, *T) error) *T {
	t.Helper()
	var fast, ref, got T
	accepted := wire.Read(data, &fast, read)
	refErr := json.Unmarshal(data, &ref)
	if accepted {
		if refErr != nil {
			t.Fatalf("reader accepted a body json.Unmarshal rejects (%v): %q", refErr, data)
		}
		if !sameBits(reflect.ValueOf(fast), reflect.ValueOf(ref)) {
			t.Fatalf("reader decoded %+v, json.Unmarshal %+v: %q", fast, ref, data)
		}
	}
	err := decode(data, &got)
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("decode error %v, json.Unmarshal %v: %q", err, refErr, data)
	}
	if !sameBits(reflect.ValueOf(got), reflect.ValueOf(ref)) {
		t.Fatalf("decode gave %+v, json.Unmarshal %+v: %q", got, ref, data)
	}
	if err != nil {
		return nil
	}
	return &got
}

// benchRuns returns n runs shaped like perfbench's: a wall time and 68
// perf-counter totals spanning several orders of magnitude.
func benchRuns(n int, seed uint64) []ProbeRun {
	rng := rand.New(rand.NewPCG(seed, 1))
	runs := make([]ProbeRun, n)
	for i := range runs {
		m := make([]float64, 68)
		for j := range m {
			m[j] = math.Floor(math.Exp(rng.Float64()*25)) + rng.Float64()
		}
		runs[i] = ProbeRun{Seconds: 1 + 30*rng.Float64(), Metrics: m}
	}
	return runs
}

// mustMarshal is json.Marshal for values that always encode.
func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// addEdgeCases seeds f with the shared edge cases and the given
// perfbench-shaped bodies.
func addEdgeCases(f *testing.F, shaped ...any) {
	for _, v := range shaped {
		f.Add(mustMarshal(v))
	}
	for _, body := range decodeEdgeCases {
		f.Add([]byte(body))
	}
}

// FuzzPredictRequestDecode throws arbitrary bytes at the single-predict
// wire path: decodePredict (checked against json.Unmarshal), field
// validation for both use cases, the model/representation parsers, and
// the probe-profile conversion. None of it may panic, and the
// validators must reject or accept — never crash — whatever decodes.
func FuzzPredictRequestDecode(f *testing.F) {
	f.Add([]byte(`{"system":"intel","benchmark":"npb/bt","seed":7}`))
	f.Add([]byte(`{"source":"amd","target":"intel","benchmark":"npb/bt","model":"rf"}`))
	f.Add([]byte(`{"system":"intel","probe_runs":[{"seconds":1.5,"metrics":[1,2,3]}],"n":200}`))
	f.Add([]byte(`{"system":"intel","benchmark":"npb/bt","model":"svm","representation":"fourier"}`))
	f.Add([]byte(`{"system":"intel","probe_runs":[{"seconds":-1,"metrics":[]}],"samples":-3,"bins":-1}`))
	f.Add([]byte(`{"seed":18446744073709551615}`))
	f.Add([]byte("{\"system\":\" \",\"benchmark\":\"\\u0000\"}"))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	addEdgeCases(f,
		&PredictRequest{System: "intel", Benchmark: "specomp/376", Model: "xgboost", Representation: "histogram", Seed: 7},
		&PredictRequest{Source: "amd", Target: "intel", Benchmark: "parsec/canneal", Model: "rf", Seed: 3},
		&PredictRequest{System: "intel", ProbeRuns: benchRuns(10, 1), Model: "knn", Representation: "pymaxent", Seed: 11},
		&PredictRequest{Source: "amd", Target: "intel", ProbeRuns: benchRuns(4, 2), SourceRelTimes: []float64{0.98, 1, 1.07}, N: 200, Samples: 10, Bins: 40})

	f.Fuzz(func(t *testing.T, data []byte) {
		p := checkDecode(t, data, readPredict, decodePredict)
		if p == nil {
			return // malformed JSON is the decoder's job to reject
		}
		req := *p
		for _, uc := range []int{1, 2} {
			_ = validateRequest(&req, uc)
		}
		if m, err := parseModel(req.Model); err == nil && m.String() == "" {
			t.Fatalf("parseModel(%q) accepted a nameless model", req.Model)
		}
		if _, err := parseRep(req.Representation); err == nil && req.Representation != "" {
			// Accepted names must round-trip through the parser again.
			if _, err2 := parseRep(req.Representation); err2 != nil {
				t.Fatalf("parseRep(%q) not idempotent", req.Representation)
			}
		}
		runs := req.probeRuns()
		if len(runs) != len(req.ProbeRuns) {
			t.Fatalf("toRuns dropped profiles: %d != %d", len(runs), len(req.ProbeRuns))
		}
		for i, r := range runs {
			a, b := r.Seconds, req.ProbeRuns[i].Seconds
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Fatalf("run %d seconds mangled: %v != %v", i, a, b)
			}
		}
	})
}

// FuzzBatchPredictRequestDecode covers the batch wire path:
// decodeBatch (checked against json.Unmarshal) plus the handler's own
// cap/shape checks, mirroring handleUC1Batch's validation order without
// spinning up a server.
func FuzzBatchPredictRequestDecode(f *testing.F) {
	f.Add([]byte(`{"system":"intel","profiles":[[{"seconds":1,"metrics":[1,2]}]],"n":100,"seed":3}`))
	f.Add([]byte(`{"system":"intel","profiles":[]}`))
	f.Add([]byte(`{"profiles":[[{"seconds":1,"metrics":[1]}]]}`))
	f.Add([]byte(`{"system":"intel","profiles":[[],[{"seconds":0,"metrics":null}]]}`))
	f.Add([]byte(`{"system":"intel","profiles":null,"bins":2147483647}`))
	f.Add([]byte(`{"pro`))
	addEdgeCases(f,
		&BatchPredictRequest{System: "intel", Profiles: [][]ProbeRun{benchRuns(10, 3), benchRuns(10, 4)}, Model: "xgboost", Representation: "pearsonrnd", Seed: 5})

	f.Fuzz(func(t *testing.T, data []byte) {
		p := checkDecode(t, data, readBatch, decodeBatch)
		if p == nil {
			return
		}
		req := *p
		_, _ = parseModel(req.Model)
		_, _ = parseRep(req.Representation)
		for _, p := range req.Profiles {
			if got := toRuns(p); len(got) != len(p) {
				t.Fatalf("toRuns dropped profiles: %d != %d", len(got), len(p))
			}
		}
	})
}

// FuzzMeasurementsRequestDecode covers the streaming-ingest wire path:
// decodeMeasurements (checked against json.Unmarshal), the handler's
// shape checks, the run conversion, and the
// quarantine validation the batch flows into. Nothing may panic, the
// decoded batch must never be mutated by validation, and the
// quarantine counters must stay consistent with the partition.
func FuzzMeasurementsRequestDecode(f *testing.F) {
	f.Add([]byte(`{"system":"intel","benchmark":"npb/bt","runs":[{"seconds":1.5,"metrics":[1,2,3]}]}`))
	f.Add([]byte(`{"system":"intel","benchmark":"npb/bt","runs":[]}`))
	f.Add([]byte(`{"system":"","benchmark":"npb/bt","runs":[{"seconds":-1,"metrics":[]}]}`))
	f.Add([]byte(`{"system":"intel","benchmark":"npb/bt","runs":[{"seconds":1e308,"metrics":[null]}]}`))
	f.Add([]byte(`{"runs":[{"metrics":[1,2]},{"seconds":2},{"seconds":0.5,"metrics":[3,4]}]}`))
	f.Add([]byte(`{"system":"\\u0000","benchmark":" ","runs":[{"seconds":1,"metrics":[-1,2]}]}`))
	f.Add([]byte(`{"sys`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[{"seconds":1}]`))
	addEdgeCases(f, &MeasurementsRequest{System: "intel", Benchmark: "npb/bt", Runs: benchRuns(32, 5)})

	f.Fuzz(func(t *testing.T, data []byte) {
		p := checkDecode(t, data, readMeasurements, decodeMeasurements)
		if p == nil {
			return // malformed JSON is the decoder's job to reject
		}
		req := *p
		// The handler's own shape checks must never panic.
		_ = req.System == "" || req.Benchmark == ""
		_ = len(req.Runs) == 0 || len(req.Runs) > maxIngestRuns
		runs := toRuns(req.Runs)
		if len(runs) != len(req.Runs) {
			t.Fatalf("toRuns dropped runs: %d != %d", len(runs), len(req.Runs))
		}
		// Deep-copy by hand: CloneRuns would normalize empty metric
		// slices to nil, which DeepEqual distinguishes from []float64{}.
		backup := make([]perfsim.Run, len(runs))
		for i, r := range runs {
			backup[i] = r
			if r.Metrics != nil {
				backup[i].Metrics = append(make([]float64, 0, len(r.Metrics)), r.Metrics...)
			}
		}
		for _, nMetrics := range []int{0, 3} {
			kept, rep := measure.ValidateRuns(runs, nMetrics, 0, measure.ValidationPolicy{})
			if rep.Total != len(runs) {
				t.Fatalf("report total %d != batch %d", rep.Total, len(runs))
			}
			if rep.Kept != len(kept) || rep.Kept+rep.Quarantined != rep.Total {
				t.Fatalf("inconsistent counters: %+v with %d kept", rep, len(kept))
			}
			if rep.Quarantined > 0 && len(rep.ByClass) == 0 {
				t.Fatalf("quarantine without defect classes: %+v", rep)
			}
		}
		// NaN-free inputs must come through validation untouched
		// (DeepEqual cannot certify NaN payloads; skip those).
		if !hasNaN(runs) && !reflect.DeepEqual(runs, backup) {
			t.Fatal("validation mutated the decoded batch")
		}
	})
}

func hasNaN(runs []perfsim.Run) bool {
	for _, r := range runs {
		if math.IsNaN(r.Seconds) {
			return true
		}
		for _, v := range r.Metrics {
			if math.IsNaN(v) {
				return true
			}
		}
	}
	return false
}
