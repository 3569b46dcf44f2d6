package cluster

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/wire"
)

// measurementsBody marshals a perfbench-shaped ingest body: runs runs
// of a wall time and 68 counters each.
func measurementsBody(runs int) []byte {
	type run struct {
		Seconds float64   `json:"seconds"`
		Metrics []float64 `json:"metrics"`
	}
	rng := rand.New(rand.NewPCG(uint64(runs), 1))
	body := struct {
		System    string `json:"system"`
		Benchmark string `json:"benchmark"`
		Runs      []run  `json:"runs"`
	}{System: "intel", Benchmark: "npb/bt", Runs: make([]run, runs)}
	for i := range body.Runs {
		m := make([]float64, 68)
		for j := range m {
			m[j] = math.Floor(math.Exp(rng.Float64()*25)) + rng.Float64()
		}
		body.Runs[i] = run{Seconds: 1 + 30*rng.Float64(), Metrics: m}
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	return b
}

// FuzzRoutingKey checks the router's one-pass key read against
// json.Unmarshal into keyedBody: whenever the reader accepts a body,
// json.Unmarshal accepts it with the same key fields, and
// decodeKeyedBody always returns json.Unmarshal's value and error.
func FuzzRoutingKey(f *testing.F) {
	f.Add(measurementsBody(32))
	f.Add(measurementsBody(1))
	for _, body := range []string{
		`{"system":"intel","benchmark":"npb/bt","seed":7}`,
		`{"source":"amd","target":"intel","benchmark":"parsec/canneal","model":"rf"}`,
		`{"system":"intel","profiles":[[{"seconds":1,"metrics":[1,2]}]],"n":100}`,
		`{"system":"intel"}`,
		`{"sys\u0074em":"intel"}`,
		`{"System":"intel"}`,
		`{"system":"intel","system":"amd"}`,
		`{"system":null}`,
		`{"system":"intel","runs":[{"seconds":-0,"metrics":[1e308,1e309]}]}`,
		`{"system":"intel","samples":1.0,"seed":-1}`,
		`{"system":"intel"} x`,
		`{"system":"caf` + "\xc3\xa9" + `"}`,
		`{"system":"intel","pad":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
		`{"system":5}`,
		`{`,
		`null`,
		`[]`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fast, ref, got keyedBody
		accepted := wire.Read(data, &fast, readKeyedBody)
		refErr := json.Unmarshal(data, &ref)
		if accepted && (refErr != nil || fast != ref) {
			t.Fatalf("reader accepted %+v, json.Unmarshal %+v (%v): %q", fast, ref, refErr, data)
		}
		err := decodeKeyedBody(data, &got)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) || got != ref {
			t.Fatalf("decode %+v (%v), json.Unmarshal %+v (%v): %q", got, err, ref, refErr, data)
		}
	})
}

// TestRoutingKeyTakesOnePass checks that a perfbench-shaped ingest
// body's key is read without declining to json.Unmarshal.
func TestRoutingKeyTakesOnePass(t *testing.T) {
	var kb keyedBody
	if !wire.Read(measurementsBody(32), &kb, readKeyedBody) || kb.System != "intel" {
		t.Fatalf("declined or misread: %+v", kb)
	}
}

// TestFrontendBodyCap checks that the router caps bodies at the
// replicas' limit: one byte over gets the replicas' structured 413 and
// is not forwarded, and a body just under it is forwarded in full.
func TestFrontendBodyCap(t *testing.T) {
	r, backs := testRouter(t, 1, nil)
	f := NewFrontend(r, nil)
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		f.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/measurements", strings.NewReader(body)))
		return rec
	}
	prefix, suffix := `{"system":"intel","pad":"`, `"}`
	pad := func(total int) string {
		return prefix + strings.Repeat("x", total-len(prefix)-len(suffix)) + suffix
	}

	rec := post(pad(wire.MaxBodyBytes + 1))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("cap+1 bytes: status %d, want 413", rec.Code)
	}
	want := `{"error":"request body exceeds the 4194304-byte limit","code":413}` + "\n"
	if rec.Body.String() != want {
		t.Errorf("413 body %q, want the replicas' %q", rec.Body.String(), want)
	}
	if n := backs[0].total.Load(); n != 0 {
		t.Errorf("oversized body forwarded %d times", n)
	}

	if rec := post(pad(wire.MaxBodyBytes - 1)); rec.Code != http.StatusOK {
		t.Fatalf("cap-1 bytes: status %d, want 200", rec.Code)
	}
	if n := backs[0].lastBody.Load(); n != wire.MaxBodyBytes-1 {
		t.Errorf("forwarded %d bytes of a %d-byte body", n, wire.MaxBodyBytes-1)
	}
}

// BenchmarkRoutingKey reads the routing key of one perfbench-shaped
// 32-run ingest body, the router's per-write decode.
func BenchmarkRoutingKey(b *testing.B) {
	body := measurementsBody(32)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var kb keyedBody
		if err := decodeKeyedBody(body, &kb); err != nil {
			b.Fatal(err)
		}
	}
}
