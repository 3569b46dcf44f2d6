// A directive must suppress a finding of an analyzer that ran. The
// first one covers no nondeterminism finding, so it is stale and is
// reported; the second names an analyzer that did not run, so it is
// left alone.
package s

import "time"

func elapsed(t0, t1 time.Time) time.Duration {
	//lint:allow nondeterminism the clock read moved to the caller
	return t1.Sub(t0)
}

func ratio(a, b float64) float64 {
	//lint:allow floatcheck callers guarantee b != 0
	return a / b
}
