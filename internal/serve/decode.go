package serve

import "repro/internal/wire"

// The request types' JSON field names, in the order their read
// functions switch on them. TestDecodeFieldNamesMatchTags keeps them in
// step with the struct tags.
var (
	probeRunFields     = []string{"seconds", "metrics"}
	measurementsFields = []string{"system", "benchmark", "runs"}
	predictFields      = []string{"system", "source", "target", "benchmark", "probe_runs", "source_rel_times", "model", "representation", "samples", "bins", "seed", "n"}
	batchFields        = []string{"system", "profiles", "model", "representation", "samples", "bins", "seed", "n"}
)

// decodeMeasurements, decodePredict and decodeBatch decode a request
// body in one pass, falling back to json.Unmarshal for any body the
// one-pass reader declines. Nothing they return aliases body, so the
// caller may release its buffer right after.
func decodeMeasurements(body []byte, req *MeasurementsRequest) error {
	return wire.Decode(body, req, readMeasurements)
}

func decodePredict(body []byte, req *PredictRequest) error {
	return wire.Decode(body, req, readPredict)
}

func decodeBatch(body []byte, req *BatchPredictRequest) error {
	return wire.Decode(body, req, readBatch)
}

func readMeasurements(r *wire.Reader, req *MeasurementsRequest) {
	var seen uint64
	r.Object(func(key []byte) bool {
		switch r.Field(key, measurementsFields, &seen) {
		case 0:
			req.System = r.Text()
		case 1:
			req.Benchmark = r.Text()
		case 2:
			req.Runs = readProbeRuns(r)
		default:
			return false
		}
		return true
	})
}

func readPredict(r *wire.Reader, req *PredictRequest) {
	var seen uint64
	r.Object(func(key []byte) bool {
		switch r.Field(key, predictFields, &seen) {
		case 0:
			req.System = r.Text()
		case 1:
			req.Source = r.Text()
		case 2:
			req.Target = r.Text()
		case 3:
			req.Benchmark = r.Text()
		case 4:
			req.ProbeRuns = readProbeRuns(r)
		case 5:
			req.SourceRelTimes = r.Floats()
		case 6:
			req.Model = r.Text()
		case 7:
			req.Representation = r.Text()
		case 8:
			req.Samples = r.Int()
		case 9:
			req.Bins = r.Int()
		case 10:
			req.Seed = r.Uint64()
		case 11:
			req.N = r.Int()
		default:
			return false
		}
		return true
	})
}

func readBatch(r *wire.Reader, req *BatchPredictRequest) {
	var seen uint64
	r.Object(func(key []byte) bool {
		switch r.Field(key, batchFields, &seen) {
		case 0:
			req.System = r.Text()
		case 1:
			req.Profiles = [][]ProbeRun{}
			r.Array(func() { req.Profiles = append(req.Profiles, readProbeRuns(r)) })
		case 2:
			req.Model = r.Text()
		case 3:
			req.Representation = r.Text()
		case 4:
			req.Samples = r.Int()
		case 5:
			req.Bins = r.Int()
		case 6:
			req.Seed = r.Uint64()
		case 7:
			req.N = r.Int()
		default:
			return false
		}
		return true
	})
}

// readProbeRuns reads an array of runs; an empty array gives an empty,
// non-nil slice, as it does in encoding/json.
func readProbeRuns(r *wire.Reader) []ProbeRun {
	runs := []ProbeRun{}
	r.Array(func() {
		var pr ProbeRun
		var seen uint64
		r.Object(func(key []byte) bool {
			switch r.Field(key, probeRunFields, &seen) {
			case 0:
				pr.Seconds = r.Float64()
			case 1:
				pr.Metrics = r.Floats()
			default:
				return false
			}
			return true
		})
		runs = append(runs, pr)
	})
	return runs
}
