// Package ctxflow enforces the context-propagation discipline:
//
//   - context.Context is the first parameter of any signature that
//     carries one;
//   - context.Background() / context.TODO() appear only in package
//     main (process entry points own the root context) — library code
//     accepts and propagates a caller's ctx, or justifies a detached
//     lifetime with //lint:allow;
//   - a caller with a ctx in scope never re-roots a context-aware
//     callee with Background/TODO;
//   - no struct field outside package main holds a context.Context:
//     a kept context outlives the call that supplied it, so a method
//     that later starts spans or waits on it joins a finished trace or
//     a stale deadline. The context package's own guidance is to pass
//     it to each call instead.
//
// Each rule reads one package at a time. A helper that starts spans
// without taking a context has to get one from a fresh root or from a
// kept one; either way the finding is on that root cause, in the
// helper's own package. Ambient time.Sleep is
// nondeterminism's rule, beside the other wall-clock reads.
//
// Findings are suppressed with `//lint:allow ctxflow <reason>` on the
// finding's line or the line above.
package ctxflow
