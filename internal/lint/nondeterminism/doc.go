// Package nondeterminism flags the three sources of run-to-run
// variation that break this repository's bit-reproducibility contract:
//
//   - Ambient clocks: time.Now, time.Since, and time.Until read wall
//     time that no seed controls. Code takes a randx.Clock instead —
//     randx.SystemClock at process edges, FixedClock/StepClock (via the
//     SetClock levers) in tests. time.Sleep waits on that same wall
//     clock; code waits on a channel its caller owns (ctx.Done(), a
//     ticker or timer) so tests and the deterministic simulations
//     control time.
//   - The global math/rand source: package-level rand.IntN, Float64,
//     Shuffle, … draw from a process-global, seed-ambient stream.
//     Seeded *randx.RNG values (or local rand.New(rand.NewPCG(...))
//     sources) are the sanctioned replacement; the package-level
//     constructors (New, NewPCG, NewChaCha8, NewSource, NewZipf) and
//     methods on local sources are exempt.
//   - Order-sensitive map iteration: appending to a slice or
//     accumulating a float inside `for ... range m` bakes Go's
//     randomized iteration order into the output. Integer accumulation,
//     writes keyed by the range key, and loops whose slice is sorted
//     immediately after are all recognized as order-free and left
//     alone.
//
// Packages whose import path ends in internal/randx are exempt
// wholesale: randx is the wrapper that owns the one legal time.Now
// reference (SystemClock), the raw rand constructors, and any sleep on
// the wall clock.
//
// Findings are suppressed with `//lint:allow nondeterminism <reason>`
// on the finding's line or the line above; the reason is mandatory.
package nondeterminism
