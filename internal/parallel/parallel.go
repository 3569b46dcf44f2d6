package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Workers resolves a worker-count request: values <= 0 select
// GOMAXPROCS, and the result never exceeds n (no idle goroutines).
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(ctx, i) for every i in [0, n) on at most workers
// goroutines (workers <= 0 selects GOMAXPROCS). Items are dispatched in
// index order. The first error cancels the pool's context and stops new
// items from starting; ForEach then waits for in-flight items and
// returns that first-observed error. If the parent context is canceled
// before all items run, ForEach returns ctx.Err().
//
// fn must be safe for concurrent invocation across distinct indices.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers, n)

	// When the context carries a trace, the whole dispatch becomes one
	// span that aggregates how long items sat queued before a worker
	// picked them up (queue_wait) versus how long they actually ran
	// (run_time). Untraced calls skip every clock read.
	if cctx, span := obs.Start(ctx, "parallel.foreach"); span != nil {
		ctx = cctx
		span.SetAttr("items", n)
		span.SetAttr("workers", workers)
		clk := span.Clock()
		dispatched := clk()
		var waitNS, runNS atomic.Int64
		inner := fn
		fn = func(ctx context.Context, i int) error {
			t0 := clk()
			waitNS.Add(int64(t0.Sub(dispatched)))
			err := inner(ctx, i)
			runNS.Add(int64(clk().Sub(t0)))
			return err
		}
		defer func() {
			span.SetAttr("queue_wait", time.Duration(waitNS.Load()))
			span.SetAttr("run_time", time.Duration(runNS.Load()))
			span.End()
		}()
	}

	if workers == 1 {
		// Sequential fast path: no goroutines, identical semantics.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	poolCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	p := &pool{cancel: cancel, fn: fn, n: n}
	p.wg.Add(workers)
	// One closure serves every worker; poolCtx and p are never
	// reassigned, so it holds copies of both.
	work := func() { p.work(poolCtx) }
	for w := 0; w < workers; w++ {
		go work()
	}
	p.wg.Wait()
	p.mu.Lock()
	err := p.firstErr
	p.mu.Unlock()
	if err != nil {
		return err
	}
	return poolCtx.Err()
}

// pool is the state the workers of one multi-worker ForEach call
// share. It is one heap object, so a call allocates it once rather
// than each field and closure apart.
type pool struct {
	cancel context.CancelFunc
	fn     func(ctx context.Context, i int) error
	n      int

	next     atomic.Int64
	wg       sync.WaitGroup
	mu       sync.Mutex
	firstErr error
}

// work runs items in index order until they run out, the context is
// canceled or an item fails.
func (p *pool) work(ctx context.Context) {
	defer p.wg.Done()
	for {
		i := int(p.next.Add(1)) - 1
		if i >= p.n || ctx.Err() != nil {
			return
		}
		if err := p.fn(ctx, i); err != nil {
			p.abort(err)
			return
		}
	}
}

// abort records the first error and cancels the remaining work.
func (p *pool) abort(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.firstErr == nil {
		p.firstErr = err
		p.cancel()
	}
}
