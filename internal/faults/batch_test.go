package faults

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/perfsim"
)

// BatchInjector is the streaming counterpart of the campaign injector,
// kept as test code: transport-level faults of a measurement stream
// (POST /v1/measurements batches) rather than corrupt run contents. A
// collector that replays on retry duplicates runs, a fan-in of
// per-node shippers reorders them, and a connection cut mid-batch
// truncates the tail. No server wires it in; a test that needs a
// faulted stream applies it to the batches it sends.

// BatchConfig parameterizes streaming-batch fault injection. Each rate
// is an independent probability in [0, 1]; the zero value injects
// nothing.
type BatchConfig struct {
	// Seed drives every decision through the same per-stream FNV
	// derivation as the campaign injector: identical seeds fault
	// identical batches, independent of which other streams exist.
	Seed uint64

	// DuplicateRate is the per-run probability of a replayed
	// (duplicated) run — the at-least-once delivery failure mode.
	DuplicateRate float64
	// ReorderRate is the per-batch probability of a deterministic
	// shuffle — out-of-order arrival from a fan-in of shippers.
	ReorderRate float64
	// TruncateRate is the per-batch probability of dropping a random
	// non-empty prefix-preserving tail — a connection cut mid-batch.
	TruncateRate float64
}

func (c BatchConfig) validate() error {
	for _, r := range []float64{c.DuplicateRate, c.ReorderRate, c.TruncateRate} {
		if r < 0 || r > 1 || math.IsNaN(r) {
			return fmt.Errorf("faults: batch rate outside [0,1] in %+v", c)
		}
	}
	return nil
}

// BatchReport tallies what the batch injector actually did.
type BatchReport struct {
	// Batches is the number of batches examined; the rest count
	// affected batches (Duplicated counts duplicated runs).
	Batches    int
	Duplicated int
	Reordered  int
	Truncated  int
	// Dropped is the total number of runs cut by truncation.
	Dropped int
}

// BatchInjector applies one BatchConfig to measurement batches.
// Methods are not safe for concurrent use; callers serialize or derive
// one injector per goroutine.
type BatchInjector struct {
	cfg    BatchConfig
	report BatchReport
}

// NewBatch returns a streaming-batch injector for the configuration.
func NewBatch(cfg BatchConfig) (*BatchInjector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &BatchInjector{cfg: cfg}, nil
}

// Report returns the accumulated tally.
func (b *BatchInjector) Report() *BatchReport { return &b.report }

// Apply returns a faulted deep copy of one batch; the input is never
// mutated. stream names the batch (e.g. "intel/npb/bt/batch/17") and,
// with the seed, fully determines the outcome. Faults compose in a
// fixed order — truncate, then duplicate, then reorder — mirroring a
// real pipeline: the wire cuts the tail, the retry layer replays, and
// the fan-in scrambles arrival order.
func (b *BatchInjector) Apply(stream string, runs []perfsim.Run) []perfsim.Run {
	rng := StreamRNG(b.cfg.Seed, stream)
	b.report.Batches++
	out := perfsim.CloneRuns(runs)
	if len(out) > 1 && rng.Float64() < b.cfg.TruncateRate {
		keep := 1 + rng.IntN(len(out)-1) // always keep a non-empty prefix
		b.report.Dropped += len(out) - keep
		b.report.Truncated++
		out = out[:keep]
	}
	if b.cfg.DuplicateRate > 0 {
		dup := make([]perfsim.Run, 0, len(out))
		for i := range out {
			dup = append(dup, out[i])
			if rng.Float64() < b.cfg.DuplicateRate {
				dup = append(dup, out[i].Clone())
				b.report.Duplicated++
			}
		}
		out = dup
	}
	if len(out) > 1 && rng.Float64() < b.cfg.ReorderRate {
		// Deterministic Fisher–Yates on the stream RNG.
		for i := len(out) - 1; i > 0; i-- {
			j := rng.IntN(i + 1)
			out[i], out[j] = out[j], out[i]
		}
		b.report.Reordered++
	}
	return out
}

func TestBatchConfigValidation(t *testing.T) {
	for _, cfg := range []BatchConfig{
		{DuplicateRate: -0.1},
		{ReorderRate: 1.1},
		{TruncateRate: 2},
	} {
		if _, err := NewBatch(cfg); err == nil {
			t.Errorf("config %+v must be rejected", cfg)
		}
	}
	if _, err := NewBatch(BatchConfig{DuplicateRate: 1, ReorderRate: 1, TruncateRate: 1}); err != nil {
		t.Errorf("rates of exactly 1 are valid: %v", err)
	}
}

func TestBatchApplyDeterministicPerStream(t *testing.T) {
	runs := makeRuns(60)
	cfg := BatchConfig{Seed: 7, DuplicateRate: 0.3, ReorderRate: 0.5, TruncateRate: 0.4}
	a, _ := NewBatch(cfg)
	b, _ := NewBatch(cfg)
	// b faults an unrelated stream first; the target stream must come
	// out identical anyway (per-stream RNG derivation, like the
	// campaign injector).
	_ = b.Apply("amd/npb/lu/batch/0", makeRuns(25))
	const stream = "intel/npb/bt/batch/17"
	got := b.Apply(stream, runs)
	want := a.Apply(stream, runs)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("same seed+stream must fault identically regardless of other streams")
	}
	// A different seed faults differently (the lever actually works).
	c, _ := NewBatch(BatchConfig{Seed: 8, DuplicateRate: 0.3, ReorderRate: 0.5, TruncateRate: 0.4})
	if reflect.DeepEqual(c.Apply(stream, runs), want) {
		t.Error("different seeds should not produce identical faults (60-run batch)")
	}
}

func TestBatchApplyNeverMutatesInput(t *testing.T) {
	runs := makeRuns(80)
	backup := perfsim.CloneRuns(runs)
	inj, _ := NewBatch(BatchConfig{Seed: 3, DuplicateRate: 0.5, ReorderRate: 1, TruncateRate: 0.5})
	for i := 0; i < 10; i++ {
		out := inj.Apply("s/npb/bt/batch/0", runs)
		if len(out) > 0 {
			out[0].Seconds = -1
			if len(out[0].Metrics) > 0 {
				out[0].Metrics[0] = -1
			}
		}
	}
	if !reflect.DeepEqual(runs, backup) {
		t.Error("Apply mutated its input (or aliased it into the output)")
	}
}

func TestBatchTruncationKeepsNonEmptyPrefix(t *testing.T) {
	runs := makeRuns(40)
	inj, _ := NewBatch(BatchConfig{Seed: 11, TruncateRate: 1})
	for i := 0; i < 20; i++ {
		out := inj.Apply("s/npb/bt/batch/x", runs)
		if len(out) == 0 || len(out) >= len(runs) {
			t.Fatalf("truncation kept %d of %d runs, want a proper non-empty prefix", len(out), len(runs))
		}
		if !reflect.DeepEqual(out, perfsim.CloneRuns(runs[:len(out)])) {
			t.Fatal("truncation must keep a prefix, not an arbitrary subset")
		}
	}
	rep := inj.Report()
	if rep.Truncated != 20 || rep.Dropped == 0 {
		t.Errorf("report: %+v, want 20 truncated batches with dropped runs", rep)
	}
	// Single-run batches cannot be truncated to empty.
	if out := inj.Apply("s/one", runs[:1]); len(out) != 1 {
		t.Errorf("single-run batch truncated to %d runs", len(out))
	}
}

func TestBatchDuplicationCountsAndAdjacency(t *testing.T) {
	runs := makeRuns(50)
	inj, _ := NewBatch(BatchConfig{Seed: 5, DuplicateRate: 0.4})
	out := inj.Apply("s/npb/bt/batch/1", runs)
	rep := inj.Report()
	if rep.Duplicated == 0 {
		t.Fatal("rate 0.4 over 50 runs produced no duplicates")
	}
	if len(out) != len(runs)+rep.Duplicated {
		t.Errorf("output length %d != input %d + duplicated %d", len(out), len(runs), rep.Duplicated)
	}
	// Without reordering, a replay lands adjacent to its original.
	dups := 0
	for i := 1; i < len(out); i++ {
		if reflect.DeepEqual(out[i], out[i-1]) {
			dups++
		}
	}
	if dups != rep.Duplicated {
		t.Errorf("found %d adjacent replays, report says %d", dups, rep.Duplicated)
	}
}

func TestBatchReorderIsPermutation(t *testing.T) {
	runs := makeRuns(30)
	inj, _ := NewBatch(BatchConfig{Seed: 9, ReorderRate: 1})
	out := inj.Apply("s/npb/bt/batch/2", runs)
	if len(out) != len(runs) {
		t.Fatalf("reorder changed the run count: %d != %d", len(out), len(runs))
	}
	if reflect.DeepEqual(out, runs) {
		t.Error("forced reorder left a 30-run batch in order")
	}
	key := func(rs []perfsim.Run) []float64 {
		ks := perfsim.Seconds(rs)
		sort.Float64s(ks)
		return ks
	}
	if !reflect.DeepEqual(key(out), key(runs)) {
		t.Error("reorder must be a permutation (multiset of seconds changed)")
	}
	if inj.Report().Reordered != 1 {
		t.Errorf("report: %+v", inj.Report())
	}
}

func TestBatchZeroConfigIsIdentity(t *testing.T) {
	runs := makeRuns(20)
	inj, _ := NewBatch(BatchConfig{Seed: 1})
	out := inj.Apply("s/npb/bt/batch/3", runs)
	if !reflect.DeepEqual(out, runs) {
		t.Error("zero rates must pass the batch through unchanged")
	}
	if &out[0].Metrics[0] == &runs[0].Metrics[0] {
		t.Error("even the identity path must deep-copy")
	}
	rep := inj.Report()
	if rep.Batches != 1 || rep.Duplicated+rep.Reordered+rep.Truncated+rep.Dropped != 0 {
		t.Errorf("report: %+v", rep)
	}
}
