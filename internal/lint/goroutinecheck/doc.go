// Package goroutinecheck enforces goroutine lifecycle discipline
// repo-wide, extending the serve/core-only rule that used to live in
// lockcheck:
//
//   - in server paths (internal/serve, internal/core) raw `go`
//     statements are forbidden outright: request work fans out through
//     internal/parallel so concurrency stays bounded and first-error
//     semantics hold;
//   - everywhere else (outside the concurrency substrates
//     internal/parallel and internal/drift) a raw goroutine must be
//     visibly lifecycle-bound: a WaitGroup Done (with the spawner
//     holding the Wait side), a <-ctx.Done() bound, or a body that is
//     exactly one channel send (the join handle the spawner receives
//     on). A named spawn target (`go m.dispatch()`) is judged by the
//     body of its declaration in the same package; a target declared
//     in another package cannot be seen from here and is flagged.
//
// Findings are suppressed with `//lint:allow goroutinecheck <reason>`
// on the finding's line or the line above.
package goroutinecheck
