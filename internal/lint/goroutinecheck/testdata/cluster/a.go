// Package cluster pins the policy for the sharded serving tier:
// internal/cluster is NOT a server path and NOT an exempt substrate —
// any goroutine it spawns must carry a visible lifecycle bound like
// everyone else's. A result send raced against a context's
// cancellation is a sanctioned shape.
package cluster

import "context"

type result struct{ err error }

// bounded selects between delivering its result and the context's
// cancellation, so an abandoned send can never block or leak.
func bounded(ctx context.Context, ch chan result) {
	go func() {
		select {
		case ch <- result{}:
		case <-ctx.Done():
		}
	}()
}

// fireAndForget is what the policy forbids: a probe refresher with no
// join handle would outlive the router that spawned it.
func fireAndForget() {
	go func() { // want "raw goroutine without a visible lifecycle bound"
		println("probe")
	}()
}

var (
	_ = bounded
	_ = fireAndForget
)
