package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/measure"
	"repro/internal/perfsim"
	"repro/internal/serve"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlBench   = "uc1_bench"
	wlProfile = "uc1_profile"
	wlCluster = "cluster_mixed"
)

var workloads = []string{wlBench, wlProfile, wlCluster}

// kind is what one generated request asks the service to do.
type kind int

const (
	kindUC1     kind = iota // UC1 prediction of a database benchmark
	kindUC2                 // UC2 prediction of a database benchmark
	kindProfile             // UC1 prediction from one raw probe profile
	kindBatch               // UC1 batch prediction from many probe profiles
	kindWrite               // measurement batch for the drift detector
)

var kindPaths = [...]string{
	kindUC1:     "/v1/predict/uc1",
	kindUC2:     "/v1/predict/uc2",
	kindProfile: "/v1/predict/uc1",
	kindBatch:   "/v1/predict/uc1/batch",
	kindWrite:   "/v1/measurements",
}

// request is one generated request: its wire body plus the decoded form
// the in-process replay and the output check work from.
type request struct {
	kind kind
	body []byte

	pred  *serve.PredictRequest      // kindUC1, kindUC2, kindProfile
	batch *serve.BatchPredictRequest // kindBatch
	write *serve.MeasurementsRequest // kindWrite

	// drifted marks the writes of the drift episode.
	drifted bool
}

func (r *request) path() string { return kindPaths[r.kind] }

// stream is one client's request sequence. A client that runs past the
// end starts again at wrap, which skips the one-off drift episode.
type stream struct {
	reqs []*request
	wrap int
}

func (s *stream) at(i int) *request {
	if i < len(s.reqs) {
		return s.reqs[i]
	}
	n := len(s.reqs) - s.wrap
	return s.reqs[s.wrap+(i-s.wrap)%n]
}

// The uc1_profile mix: every model family with every decoder.
var (
	profileModels = []string{"knn", "rf", "xgboost"}
	profileReps   = []string{"pearsonrnd", "histogram", "pymaxent"}
)

const (
	probeRunsPerProfile = 10 // the paper's profile budget
	batchProfiles       = 16 // profiles per batch request
	// One uc1_profile request in this many is a batch, which takes as
	// long as about 15 single requests. At 1 in 32, p90_ms falls near
	// the single requests' 93rd percentile. At 1 in 16 it fell near
	// their 96th, in a thin tail that a few ms of host stall moved by up
	// to a quarter from run to run.
	batchEvery   = 32
	writeRuns    = 32 // runs per measurement batch (one drift window step)
	driftBatches = 3  // drifted batches per designated cell: one trip at the default hysteresis
	driftTail    = 0.2
)

// driftCell is the designated drifting cell of a system: its first
// benchmark.
func driftCell(sd *measure.SystemData) string { return sd.Benchmarks[0].Workload.ID() }

// buildStreams generates each client's request sequence for the
// workload from the seed. The database only supplies identities and
// measured runs to copy; the servers see nothing but the bodies.
func buildStreams(workload string, db *measure.Database, seed uint64, clients, perClient int) ([]*stream, error) {
	out := make([]*stream, clients)
	for c := range out {
		rng := rand.New(rand.NewPCG(seed, uint64(c)+1))
		g := &gen{db: db, rng: rng}
		s := &stream{}
		for i := 0; i < perClient; i++ {
			var r *request
			switch workload {
			case wlBench:
				r = g.uc1(i)
			case wlProfile:
				if i%batchEvery == batchEvery-1 {
					r = g.batch(i / batchEvery)
				} else {
					r = g.profile(i - i/batchEvery)
				}
			case wlCluster:
				r = g.cluster(c, i)
			default:
				return nil, fmt.Errorf("unknown workload %q (want %v)", workload, workloads)
			}
			s.reqs = append(s.reqs, r)
		}
		if workload == wlCluster && c == 0 {
			// Past the drift episode: 2*driftBatches writes, one in four requests.
			s.wrap = 4 * 2 * driftBatches
		}
		out[c] = s
	}
	return out, nil
}

// interleave merges the client streams round-robin, the order the
// in-process replay follows.
func interleave(streams []*stream) []*request {
	var out []*request
	for i := 0; i < len(streams[0].reqs); i++ {
		for _, s := range streams {
			if i < len(s.reqs) {
				out = append(out, s.reqs[i])
			}
		}
	}
	return out
}

// gen draws one client's requests. Cyclic choices walk a fresh random
// permutation per cycle, so every key recurs at the same rate on every
// seed and only the order changes.
type gen struct {
	db   *measure.Database
	rng  *rand.Rand
	perm map[string][]int
}

// cyclic returns element i of the named cycle over n items.
func (g *gen) cyclic(name string, n, i int) int {
	if g.perm == nil {
		g.perm = map[string][]int{}
	}
	if i%n == 0 || g.perm[name] == nil {
		g.perm[name] = g.rng.Perm(n)
	}
	return g.perm[name][i%n]
}

func (g *gen) benchmarks() int { return len(g.db.Systems[0].Benchmarks) }

func (g *gen) uc1(i int) *request {
	nb := g.benchmarks()
	k := g.cyclic("uc1", len(g.db.Systems)*nb, i)
	sd := &g.db.Systems[k/nb]
	return predict(kindUC1, &serve.PredictRequest{
		System:         sd.SystemName,
		Benchmark:      sd.Benchmarks[k%nb].Workload.ID(),
		Model:          "knn",
		Representation: "pearsonrnd",
	})
}

func (g *gen) uc2(i int) *request {
	nb := g.benchmarks()
	k := g.cyclic("uc2", 2*nb, i)
	src, dst := g.db.Systems[0].SystemName, g.db.Systems[1].SystemName
	if k >= nb {
		src, dst = dst, src
	}
	return predict(kindUC2, &serve.PredictRequest{
		Source:         src,
		Target:         dst,
		Benchmark:      g.db.Systems[0].Benchmarks[k%nb].Workload.ID(),
		Model:          "knn",
		Representation: "pearsonrnd",
	})
}

// combo is element i of the (system, model, decoder) cycle.
func (g *gen) combo(name string, i int) (*measure.SystemData, string, string) {
	nm, nr := len(profileModels), len(profileReps)
	k := g.cyclic(name, len(g.db.Systems)*nm*nr, i)
	return &g.db.Systems[k/(nm*nr)], profileModels[k/nr%nm], profileReps[k%nr]
}

// probeProfile copies probeRunsPerProfile distinct probe runs of a
// random benchmark of the system.
func (g *gen) probeProfile(sd *measure.SystemData) []serve.ProbeRun {
	b := &sd.Benchmarks[g.rng.IntN(len(sd.Benchmarks))]
	pick := g.rng.Perm(len(b.ProbeRuns))[:probeRunsPerProfile]
	sort.Ints(pick)
	out := make([]serve.ProbeRun, len(pick))
	for i, j := range pick {
		out[i] = wireRun(b.ProbeRuns[j])
	}
	return out
}

func (g *gen) profile(i int) *request {
	sd, model, rep := g.combo("profile", i)
	return predict(kindProfile, &serve.PredictRequest{
		System:         sd.SystemName,
		ProbeRuns:      g.probeProfile(sd),
		Model:          model,
		Representation: rep,
	})
}

func (g *gen) batch(i int) *request {
	sd, model, rep := g.combo("batch", i)
	b := &serve.BatchPredictRequest{System: sd.SystemName, Model: model, Representation: rep}
	for p := 0; p < batchProfiles; p++ {
		b.Profiles = append(b.Profiles, g.probeProfile(sd))
	}
	return &request{kind: kindBatch, body: mustJSON(b), batch: b}
}

// cluster is position i of client c's cluster_mixed sequence: UC1,
// UC2, UC1, write, repeating. Client 0's first 2*driftBatches writes
// are the drift episode, alternating systems.
func (g *gen) cluster(c, i int) *request {
	switch i % 4 {
	case 0:
		return g.uc1(2 * (i / 4))
	case 2:
		return g.uc1(2*(i/4) + 1)
	case 1:
		return g.uc2(i / 4)
	}
	w := i / 4
	if c == 0 && w < 2*driftBatches {
		return g.driftWrite(&g.db.Systems[w%2])
	}
	return g.resampleWrite(w)
}

// resampleWrite re-draws writeRuns runs, with replacement, from the
// measured runs of a cell that is not designated to drift.
func (g *gen) resampleWrite(w int) *request {
	nb := g.benchmarks()
	k := g.cyclic("write", len(g.db.Systems)*(nb-1), w)
	sd := &g.db.Systems[k/(nb-1)]
	b := &sd.Benchmarks[1+k%(nb-1)] // index 0 is the drift cell
	runs := make([]serve.ProbeRun, writeRuns)
	for j := range runs {
		runs[j] = wireRun(b.Runs[g.rng.IntN(len(b.Runs))])
	}
	return g.write(sd, b.Workload.ID(), runs, false)
}

// driftRuns draws writeRuns runs from the slowest driftTail of the
// designated cell's measured runs: valid runs whose distribution the
// detector must flag.
func driftRuns(b *measure.BenchmarkData, rng *rand.Rand) []serve.ProbeRun {
	order := make([]int, len(b.Runs))
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(x, y int) bool { return b.Runs[order[x]].Seconds > b.Runs[order[y]].Seconds })
	tail := order[:int(driftTail*float64(len(order)))]
	runs := make([]serve.ProbeRun, writeRuns)
	for j := range runs {
		runs[j] = wireRun(b.Runs[tail[rng.IntN(len(tail))]])
	}
	return runs
}

func (g *gen) driftWrite(sd *measure.SystemData) *request {
	b, _ := sd.Find(driftCell(sd))
	return g.write(sd, b.Workload.ID(), driftRuns(b, g.rng), true)
}

func (g *gen) write(sd *measure.SystemData, bench string, runs []serve.ProbeRun, drifted bool) *request {
	m := &serve.MeasurementsRequest{System: sd.SystemName, Benchmark: bench, Runs: runs}
	return &request{kind: kindWrite, body: mustJSON(m), write: m, drifted: drifted}
}

func predict(k kind, p *serve.PredictRequest) *request {
	return &request{kind: k, body: mustJSON(p), pred: p}
}

func wireRun(r perfsim.Run) serve.ProbeRun {
	return serve.ProbeRun{Seconds: r.Seconds, Metrics: r.Metrics}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encode generated request: %v", err)) // plain data structs always encode
	}
	return b
}

// warmups returns one request per distinct model key of the workload,
// so the timed phase meets no lazy fit.
func warmups(workload string, db *measure.Database) []*request {
	var out []*request
	switch workload {
	case wlBench, wlCluster:
		for s := range db.Systems {
			for _, b := range db.Systems[s].Benchmarks {
				out = append(out, predict(kindUC1, &serve.PredictRequest{
					System: db.Systems[s].SystemName, Benchmark: b.Workload.ID(),
					Model: "knn", Representation: "pearsonrnd",
				}))
				if workload == wlCluster {
					out = append(out, predict(kindUC2, &serve.PredictRequest{
						Source: db.Systems[s].SystemName, Target: db.Systems[1-s].SystemName,
						Benchmark: b.Workload.ID(), Model: "knn", Representation: "pearsonrnd",
					}))
				}
			}
		}
	case wlProfile:
		// Costliest fits first, so the two clients finish together.
		for _, model := range []string{"xgboost", "rf", "knn"} {
			for _, rep := range []string{"histogram", "pearsonrnd", "pymaxent"} {
				for s := range db.Systems {
					sd := &db.Systems[s]
					runs := make([]serve.ProbeRun, probeRunsPerProfile)
					for j := range runs {
						runs[j] = wireRun(sd.Benchmarks[0].ProbeRuns[j])
					}
					out = append(out, predict(kindProfile, &serve.PredictRequest{
						System: sd.SystemName, ProbeRuns: runs, Model: model, Representation: rep,
					}))
				}
			}
		}
	}
	return out
}
