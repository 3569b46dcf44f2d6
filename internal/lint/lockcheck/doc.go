// Package lockcheck enforces the lock discipline the serving and
// training paths rely on: after a Lock or RLock, the critical section
// must either be straight-line code ending in the matching release, or
// be covered by a deferred release. A branch, loop, return, or go
// statement between Lock and a non-deferred Unlock means one early
// return or panic strands the lock.
//
// Copied locks (value receivers, value parameters, assignments and
// range values whose type carries a sync lock) are not checked here:
// go vet's copylocks pass reports every such case, and vet runs in the
// same lint gate.
//
// The raw-goroutine rule for server paths moved to goroutinecheck,
// which enforces it repo-wide together with lifecycle binding.
//
// Findings are suppressed with `//lint:allow lockcheck <reason>` on the
// finding's line or the line above; the reason is mandatory.
package lockcheck
