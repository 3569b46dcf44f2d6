package faults

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/measure"
	"repro/internal/perfsim"
	"repro/internal/randx"
)

// Class names one injected fault kind. The corrupt-counter classes are
// split by the value written so quarantine reports can be checked
// class-by-class.
type Class string

// The injectable fault classes.
const (
	Straggler   Class = "straggler"
	Drop        Class = "drop"
	CorruptNaN  Class = "corrupt_nan"
	CorruptInf  Class = "corrupt_inf"
	CorruptNeg  Class = "corrupt_negative"
	Truncate    Class = "truncate"
	SchemaDrift Class = "schema_drift"
)

// Config parameterizes an injection pass. Each rate is the independent
// per-run probability of that fault class; their sum must stay <= 1.
// The zero value injects nothing.
type Config struct {
	// Seed drives every injection decision. The same seed corrupts the
	// same runs in the same way, independent of iteration order.
	Seed uint64

	// StragglerRate multiplies the run time of selected runs by a
	// Pareto(StragglerAlpha) factor of at least StragglerScale —
	// contaminated durations that are finite and positive, hence
	// invisible to schema validation.
	StragglerRate float64
	// DropRate removes selected runs from the set entirely.
	DropRate float64
	// CorruptRate overwrites one counter of selected runs with NaN,
	// ±Inf, or a negated value (chosen uniformly).
	CorruptRate float64
	// TruncateRate cuts selected runs' counter vectors short.
	TruncateRate float64
	// DriftRate appends spurious extra counters to selected runs.
	DriftRate float64

	// StragglerScale is the minimum straggler multiplier (default 4).
	StragglerScale float64
	// StragglerAlpha is the Pareto tail exponent (default 1.5).
	StragglerAlpha float64

	// Systems restricts injection to the named systems (nil = all).
	Systems []string
	// SkipRuns / SkipProbes exempt the distribution-measurement runs
	// or the probe runs from injection.
	SkipRuns, SkipProbes bool
}

func (c Config) withDefaults() Config {
	if c.StragglerScale <= 1 {
		c.StragglerScale = 4
	}
	if c.StragglerAlpha <= 0 {
		c.StragglerAlpha = 1.5
	}
	return c
}

// rate returns the total per-run fault probability.
func (c Config) rate() float64 {
	return c.StragglerRate + c.DropRate + c.CorruptRate + c.TruncateRate + c.DriftRate
}

func (c Config) validate() error {
	for _, r := range []float64{c.StragglerRate, c.DropRate, c.CorruptRate, c.TruncateRate, c.DriftRate} {
		if r < 0 || math.IsNaN(r) {
			return fmt.Errorf("faults: negative or NaN rate in %+v", c)
		}
	}
	if c.rate() > 1 {
		return fmt.Errorf("faults: class rates sum to %.3f > 1", c.rate())
	}
	return nil
}

// Report tallies what an injection pass actually did.
type Report struct {
	// Examined is the number of runs considered; Injected counts
	// faulted runs by class.
	Examined int
	Injected map[Class]int
	// ByBenchmark counts faulted runs per "system/suite/name" key, so
	// tests can tell exactly which benchmarks were left clean.
	ByBenchmark map[string]int
}

// Total is the number of faulted runs across classes.
func (r *Report) Total() int {
	n := 0
	for _, v := range r.Injected {
		n += v
	}
	return n
}

func (r *Report) add(bench string, class Class) {
	if r.Injected == nil {
		r.Injected = make(map[Class]int)
	}
	if r.ByBenchmark == nil {
		r.ByBenchmark = make(map[string]int)
	}
	r.Injected[class]++
	r.ByBenchmark[bench]++
}

// Injector applies one Config to run sets. Methods are not safe for
// concurrent use; derive one injector per goroutine.
type Injector struct {
	cfg    Config
	report Report
}

// New returns an injector for the configuration.
func New(cfg Config) (*Injector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg.withDefaults()}, nil
}

// Report returns the accumulated injection tally.
func (inj *Injector) Report() *Report { return &inj.report }

// StreamRNG derives the deterministic per-stream RNG: the seed hashed
// with the stream's identity (e.g. "intel/npb/bt/runs"), so injection
// outcomes do not depend on which other streams were processed. The
// campaign injector and the cluster simulation's per-replica
// latency/outage schedules share this derivation, which is what lets a
// single scenario seed fault every stream identically regardless of
// replica count or request order.
func StreamRNG(seed uint64, stream string) *randx.RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(stream))
	return randx.NewPair(seed^h.Sum64(), seed+0x9E3779B97F4A7C15*h.Sum64())
}

// Apply returns a faulted deep copy of runs; the input is never
// mutated. stream names the run set ("system/suite/bench/runs") and,
// with the seed, fully determines which runs are faulted and how.
// benchKey labels the report entries (usually stream minus the
// trailing set name).
func (inj *Injector) Apply(stream, benchKey string, runs []perfsim.Run) []perfsim.Run {
	rng := StreamRNG(inj.cfg.Seed, stream)
	out := make([]perfsim.Run, 0, len(runs))
	c := inj.cfg
	for i := range runs {
		inj.report.Examined++
		// One classification draw per run, partitioning [0,1) into the
		// class intervals; the remainder is "clean". Class-specific
		// draws follow, so the stream stays deterministic per run.
		u := rng.Float64()
		switch {
		case u < c.DropRate:
			inj.report.add(benchKey, Drop)
			continue
		case u < c.DropRate+c.CorruptRate:
			r := runs[i].Clone()
			inj.corruptCounter(rng, benchKey, &r)
			out = append(out, r)
		case u < c.DropRate+c.CorruptRate+c.TruncateRate:
			r := runs[i].Clone()
			if len(r.Metrics) > 0 {
				r.Metrics = r.Metrics[:rng.IntN(len(r.Metrics))]
			}
			inj.report.add(benchKey, Truncate)
			out = append(out, r)
		case u < c.DropRate+c.CorruptRate+c.TruncateRate+c.DriftRate:
			r := runs[i].Clone()
			for extra := 1 + rng.IntN(2); extra > 0; extra-- {
				r.Metrics = append(r.Metrics, rng.Float64()*1e9)
			}
			inj.report.add(benchKey, SchemaDrift)
			out = append(out, r)
		case u < c.DropRate+c.CorruptRate+c.TruncateRate+c.DriftRate+c.StragglerRate:
			r := runs[i].Clone()
			r.Seconds *= c.StragglerScale * paretoFactor(rng, c.StragglerAlpha)
			inj.report.add(benchKey, Straggler)
			out = append(out, r)
		default:
			out = append(out, runs[i].Clone())
		}
	}
	return out
}

// corruptCounter overwrites one counter of r with a corrupt value.
func (inj *Injector) corruptCounter(rng *randx.RNG, benchKey string, r *perfsim.Run) {
	if len(r.Metrics) == 0 {
		inj.report.add(benchKey, CorruptNaN)
		return
	}
	m := rng.IntN(len(r.Metrics))
	switch rng.IntN(4) {
	case 0:
		r.Metrics[m] = math.NaN()
		inj.report.add(benchKey, CorruptNaN)
	case 1:
		r.Metrics[m] = math.Inf(1)
		inj.report.add(benchKey, CorruptInf)
	case 2:
		r.Metrics[m] = math.Inf(-1)
		inj.report.add(benchKey, CorruptInf)
	default:
		r.Metrics[m] = -math.Abs(r.Metrics[m]) - 1
		inj.report.add(benchKey, CorruptNeg)
	}
}

// paretoFactor draws the heavy-tail multiplier u^(-1/alpha) >= 1.
func paretoFactor(rng *randx.RNG, alpha float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	//lint:allow floatcheck Config defaulting pins StragglerAlpha to 1.5 when non-positive before any draw
	return math.Pow(u, -1/alpha)
}

// targets reports whether the configuration injects into this system.
func (c Config) targets(system string) bool {
	if len(c.Systems) == 0 {
		return true
	}
	for _, s := range c.Systems {
		if s == system {
			return true
		}
	}
	return false
}

// Inject returns a faulted deep copy of the database plus the report
// of everything that was injected. The input database is not mutated.
// Which runs are faulted depends only on cfg (seed, rates, targeting)
// and each run's (system, benchmark, set, index) identity.
func Inject(db *measure.Database, cfg Config) (*measure.Database, *Report, error) {
	inj, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	out := &measure.Database{
		Seed:                  db.Seed,
		RunsPerBenchmark:      db.RunsPerBenchmark,
		ProbeRunsPerBenchmark: db.ProbeRunsPerBenchmark,
		Systems:               make([]measure.SystemData, len(db.Systems)),
	}
	for si := range db.Systems {
		sd := &db.Systems[si]
		clone := measure.SystemData{
			SystemName:  sd.SystemName,
			MetricNames: append([]string(nil), sd.MetricNames...),
			Benchmarks:  make([]measure.BenchmarkData, len(sd.Benchmarks)),
		}
		hit := inj.cfg.targets(sd.SystemName)
		for bi := range sd.Benchmarks {
			b := &sd.Benchmarks[bi]
			key := sd.SystemName + "/" + b.Workload.ID()
			nb := measure.BenchmarkData{Workload: b.Workload}
			if hit && !inj.cfg.SkipRuns {
				nb.Runs = inj.Apply(key+"/runs", key, b.Runs)
			} else {
				nb.Runs = perfsim.CloneRuns(b.Runs)
			}
			if hit && !inj.cfg.SkipProbes {
				nb.ProbeRuns = inj.Apply(key+"/probes", key, b.ProbeRuns)
			} else {
				nb.ProbeRuns = perfsim.CloneRuns(b.ProbeRuns)
			}
			clone.Benchmarks[bi] = nb
		}
		out.Systems[si] = clone
	}
	return out, inj.Report(), nil
}
