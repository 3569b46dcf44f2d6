package serve

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/wire"
)

// TestDecodeFieldNamesMatchTags keeps each read function's field list
// in step with its struct's JSON tags.
func TestDecodeFieldNamesMatchTags(t *testing.T) {
	for _, tc := range []struct {
		v     any
		names []string
	}{
		{ProbeRun{}, probeRunFields},
		{MeasurementsRequest{}, measurementsFields},
		{PredictRequest{}, predictFields},
		{BatchPredictRequest{}, batchFields},
	} {
		typ := reflect.TypeOf(tc.v)
		var tags []string
		for i := 0; i < typ.NumField(); i++ {
			tag, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			tags = append(tags, tag)
		}
		if !reflect.DeepEqual(tags, tc.names) {
			t.Errorf("%s: read fields %v, JSON tags %v", typ.Name(), tc.names, tags)
		}
	}
}

// TestPerfbenchShapedBodiesTakeOnePass checks that json.Marshal output
// of each request type, the shape perfbench sends, is read by the
// one-pass reader rather than declined to json.Unmarshal.
func TestPerfbenchShapedBodiesTakeOnePass(t *testing.T) {
	var m MeasurementsRequest
	if !wire.Read(mustMarshal(&MeasurementsRequest{System: "intel", Benchmark: "npb/bt", Runs: benchRuns(32, 1)}), &m, readMeasurements) {
		t.Error("measurement batch declined")
	}
	var p PredictRequest
	if !wire.Read(mustMarshal(&PredictRequest{System: "intel", ProbeRuns: benchRuns(10, 2), Model: "rf", Seed: 3, N: 100}), &p, readPredict) {
		t.Error("probe-profile predict declined")
	}
	var b BatchPredictRequest
	if !wire.Read(mustMarshal(&BatchPredictRequest{System: "intel", Profiles: [][]ProbeRun{benchRuns(10, 3)}, Seed: 1}), &b, readBatch) {
		t.Error("batch predict declined")
	}
}

// BenchmarkDecodeMeasurements decodes one perfbench-shaped ingest body:
// 32 runs of a wall time and 68 counters (41 KB, 2,208 numbers).
func BenchmarkDecodeMeasurements(b *testing.B) {
	body := mustMarshal(&MeasurementsRequest{System: "intel", Benchmark: "npb/bt", Runs: benchRuns(32, 1)})
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req MeasurementsRequest
		if err := decodeMeasurements(body, &req); err != nil {
			b.Fatal(err)
		}
	}
}
