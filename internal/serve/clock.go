package serve

import "repro/internal/randx"

// clock is the package's single time source. Request latency, trace
// spans and drift staleness all read through it so that tests can
// freeze or step time; production uses the wall clock.
var clock = randx.SystemClock

// SetClock overrides the serving clock. Tests that assert on latency
// or staleness numbers install a randx.FixedClock/StepClock and restore
// randx.SystemClock afterwards. Not safe to call while a server is
// handling requests.
func SetClock(c randx.Clock) { clock = c }
