package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/perfsim"
)

// This file is the predictor's side of the streaming-ingest drift
// loop (internal/drift): merging freshly measured runs into the
// database copy-on-write, and strictly refitting one system's models
// on the merged data while the stale models keep serving.

// SetBenchmarkRuns replaces the named benchmark's measurement runs
// with a deep copy of runs, swapping in a copy-on-write database
// snapshot: readers that loaded the old snapshot keep a consistent
// view, and a request never observes a half-merged benchmark. The
// caller supplies the full replacement set (training baseline plus
// drifted window), which makes a retried refit idempotent — re-applying
// the same merge yields the same snapshot, not a double append.
//
// Only the database changes; cached datasets and models still hold the
// old snapshot until RefitSystem drops them.
func (p *Predictor) SetBenchmarkRuns(system, benchmark string, runs []perfsim.Run) error {
	if len(runs) < 2 {
		return fmt.Errorf("core: benchmark %s/%s needs >= 2 runs, got %d", system, benchmark, len(runs))
	}
	p.dbMu.Lock()
	defer p.dbMu.Unlock()
	old := p.db.Load()
	si := -1
	for i := range old.Systems {
		if old.Systems[i].SystemName == system {
			si = i
			break
		}
	}
	if si < 0 {
		return fmt.Errorf("core: %w %q", ErrUnknownSystem, system)
	}
	bi := -1
	for i := range old.Systems[si].Benchmarks {
		if old.Systems[si].Benchmarks[i].Workload.ID() == benchmark {
			bi = i
			break
		}
	}
	if bi < 0 {
		return fmt.Errorf("core: %w %q on system %q", ErrUnknownBenchmark, benchmark, system)
	}
	// Copy-on-write along the path to the one mutated benchmark; every
	// untouched system/benchmark is shared with the old snapshot.
	next := *old
	next.Systems = append([]measure.SystemData(nil), old.Systems...)
	sys := next.Systems[si]
	sys.Benchmarks = append([]measure.BenchmarkData(nil), sys.Benchmarks...)
	bench := sys.Benchmarks[bi]
	bench.Runs = perfsim.CloneRuns(runs)
	sys.Benchmarks[bi] = bench
	next.Systems[si] = sys
	p.db.Store(&next)
	return nil
}

// refreshSystem drops every cached dataset touching the named system
// (as UC1 system, UC2 source, or UC2 target) and the system's validated
// views, which makes every model fitted on them stale: it keeps serving
// on the degraded path until its key is refitted. It returns, in
// deterministic order, the keys whose slots hold a model, and drops the
// slots' kNN fallbacks, which are stale too and would otherwise keep the
// old dataset alive. The slots are read after the drop, each under its
// mutex, so a model fitted on a dropped dataset is never missed.
func (p *Predictor) refreshSystem(system string) []modelKey {
	touches := func(dk datasetKey) bool { return dk.system == system || dk.target == system }
	p.datasets.Range(func(key, _ any) bool {
		if touches(key.(datasetKey)) {
			p.datasets.Delete(key)
		}
		return true
	})
	p.validations.Range(func(key, _ any) bool {
		if key.(validKey).system == system {
			p.validations.Delete(key)
		}
		return true
	})
	var resident []modelKey
	p.slots.Range(func(key, value any) bool {
		k := key.(modelKey)
		if !touches(k.data) {
			return true
		}
		s := value.(*modelSlot)
		s.mu.Lock()
		held := s.model != nil || s.fallback != nil
		s.fallback = nil
		s.mu.Unlock()
		if held {
			resident = append(resident, k)
		}
		return true
	})
	sort.Slice(resident, func(i, j int) bool {
		a, b := resident[i], resident[j]
		if a.data.label() != b.data.label() {
			return a.data.label() < b.data.label()
		}
		return a.holdout < b.holdout
	})
	return resident
}

// RefitSystem re-validates and strictly refits every model that was
// resident for the named system against the current database snapshot
// — the drift refitter's entry point after SetBenchmarkRuns swaps the
// merged data in. Refits run concurrently on the shared worker pool,
// each under the dataset's circuit breaker and bypassing the model
// store's disk copy (registry Refresh: fit and persist): the first
// failure cancels the remaining work and the error trips the breaker,
// leaving the stale pre-refresh models serving (flagged degraded)
// exactly like today's degraded path. A key a concurrent request has
// already refitted is not fitted again. Models nobody had requested yet
// are not eagerly fitted; they resolve lazily on first request as
// usual.
func (p *Predictor) RefitSystem(ctx context.Context, system string) error {
	ctx, span := obs.Start(ctx, "predictor.refit")
	defer span.End()
	span.SetAttr("system", system)
	keys := p.refreshSystem(system)
	span.SetAttr("models", len(keys))
	return parallel.ForEach(ctx, len(keys), 0, func(ctx context.Context, i int) error {
		if _, err := p.model(ctx, keys[i], false, true); err != nil {
			return fmt.Errorf("core: refit %s holdout=%q: %w", keys[i].data.label(), keys[i].holdout, err)
		}
		return nil
	})
}
