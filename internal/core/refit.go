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
// old snapshot until RefitSystem (or Refresh) drops them.
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

// refreshSystem drops every cached dataset, model, and kNN fallback
// touching the named system (as UC1 system, UC2 source, or UC2
// target), and the system's validated views, keeping each dropped
// fitted model as a stale fallback so degraded serving works while the
// refit is in flight or failing. Returns the dropped model keys in
// deterministic order.
func (p *Predictor) refreshSystem(system string) []modelKey {
	touches := func(dk datasetKey) bool { return dk.system == system || dk.target == system }
	var dropped []modelKey
	p.models.Range(func(key, value any) bool {
		k := key.(modelKey)
		if !touches(k.data) {
			return true
		}
		c := value.(*modelCell)
		c.mu.Lock()
		fitted := c.fitted
		c.mu.Unlock()
		if fitted != nil {
			p.stale.Store(key, fitted)
		}
		p.models.Delete(key)
		dropped = append(dropped, k)
		return true
	})
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
	p.fallbacks.Range(func(key, _ any) bool {
		if touches(key.(modelKey).data) {
			p.fallbacks.Delete(key)
		}
		return true
	})
	sort.Slice(dropped, func(i, j int) bool {
		a, b := dropped[i], dropped[j]
		if a.data.label() != b.data.label() {
			return a.data.label() < b.data.label()
		}
		return a.holdout < b.holdout
	})
	return dropped
}

// RefreshSystem is the exported single-system variant of Refresh: it
// drops the system's cached state (keeping stale fallbacks) without
// refitting, and reports how many models were dropped.
func (p *Predictor) RefreshSystem(system string) int {
	return len(p.refreshSystem(system))
}

// RefitSystem re-validates and strictly refits every model that was
// resident for the named system against the current database snapshot
// — the drift refitter's entry point after SetBenchmarkRuns swaps the
// merged data in. Refits run concurrently on the shared worker pool,
// each under the dataset's circuit breaker: the first failure cancels
// the remaining work and the error trips the breaker, leaving the
// stale pre-refresh models serving (flagged degraded) exactly like
// today's degraded path. Models nobody had requested yet are not
// eagerly fitted; they resolve lazily on first request as usual.
func (p *Predictor) RefitSystem(ctx context.Context, system string) error {
	ctx, span := obs.Start(ctx, "predictor.refit")
	defer span.End()
	span.SetAttr("system", system)
	dropped := p.refreshSystem(system)
	span.SetAttr("models", len(dropped))
	return parallel.ForEach(ctx, len(dropped), 0, func(ctx context.Context, i int) error {
		if err := p.refitOne(ctx, dropped[i]); err != nil {
			return fmt.Errorf("core: refit %s holdout=%q: %w", dropped[i].data.label(), dropped[i].holdout, err)
		}
		return nil
	})
}

// refitOne strictly refits one model key on the current snapshot,
// bypassing the memory/disk model-store tiers (registry Refresh:
// fit, persist, atomic swap). Shares the breaker and cache cells with
// the request path, so a concurrent request that already refitted the
// key is simply reused.
func (p *Predictor) refitOne(ctx context.Context, k modelKey) error {
	data, err := p.dataset(ctx, k.data)
	if err != nil {
		return err
	}
	v, _ := p.models.LoadOrStore(k, &modelCell{})
	c := v.(*modelCell)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fitted != nil {
		return nil // a concurrent request beat us to the refit
	}
	test, train, err := resolveHoldout(data, k.holdout)
	if err != nil {
		return err
	}
	br := p.breaker(k.data)
	if err := br.allow(p.now()); err != nil {
		return err
	}
	fm, err := p.fitResolved(ctx, data, k, test, train, false, true)
	if err != nil {
		ferr := &fitError{err: err}
		br.failure(p.now(), ferr)
		return ferr
	}
	br.success()
	c.fitted = fm
	p.stale.Delete(k)
	p.misses.Add(1)
	return nil
}
