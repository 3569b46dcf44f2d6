package core

import (
	"fmt"
	"sync"
	"time"
)

// The fit breakers run at fixed settings. One failure opens a
// breaker: model fitting is deterministic, so a failed fit will fail
// again until something changes. The first open interval is
// breakerBaseBackoff, and each later failure doubles it up to
// breakerMaxBackoff.
const (
	breakerBaseBackoff = time.Second
	breakerMaxBackoff  = 2 * time.Minute
)

// BreakerOpenError reports that a model's breaker is open: the last fit
// attempt failed recently enough that retrying now would only repeat
// the failure. Serving layers map it to 503 with a Retry-After header.
type BreakerOpenError struct {
	// Key labels the guarded (system, config) pair.
	Key string
	// RetryAfter is how long until the breaker admits a probe attempt.
	RetryAfter time.Duration
	// LastErr is the fit error that opened (or kept open) the breaker.
	LastErr error
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("core: breaker open for %s (retry in %s): %v", e.Key, e.RetryAfter.Round(time.Millisecond), e.LastErr)
}

func (e *BreakerOpenError) Unwrap() error { return e.LastErr }

// BreakerState is an observable snapshot of one breaker, exposed via
// Predictor.Breakers and the server's /v1/status endpoint.
type BreakerState struct {
	// Key labels the guarded (system, config) pair.
	Key string
	// Open reports whether fits are currently rejected.
	Open bool
	// Failures is the current consecutive-failure count.
	Failures int
	// Trips counts how many times the breaker has opened in total.
	Trips int
	// RetryAfter is the time until the next probe is admitted (0 when
	// closed or already due).
	RetryAfter time.Duration
	// LastErr is the most recent fit error message ("" if none).
	LastErr string
}

// breaker is one circuit breaker. Fit attempts call allow first; an
// admitted attempt reports back via success or failure. While open, one
// probe attempt is admitted per backoff interval (half-open), so
// recovery is detected without a thundering herd of refits.
type breaker struct {
	mu       sync.Mutex
	key      string
	failures int
	trips    int
	open     bool
	halfOpen bool
	until    time.Time
	backoff  time.Duration
	lastErr  error
}

// allow decides whether a fit attempt may proceed at time now. It
// returns a *BreakerOpenError when the attempt is rejected.
func (b *breaker) allow(now time.Time) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return nil
	}
	if !now.Before(b.until) && !b.halfOpen {
		// Backoff elapsed: admit exactly one probe attempt.
		b.halfOpen = true
		return nil
	}
	retry := b.until.Sub(now)
	if retry < 0 {
		retry = 0
	}
	return &BreakerOpenError{Key: b.key, RetryAfter: retry, LastErr: b.lastErr}
}

// success records a completed fit and closes the breaker.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.open = false
	b.halfOpen = false
	b.backoff = 0
	b.lastErr = nil
}

// failure records a failed fit attempt at time now, opening the breaker
// (with doubled backoff if it was already open).
func (b *breaker) failure(now time.Time, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lastErr = err
	b.halfOpen = false
	b.failures++
	switch {
	case b.backoff == 0:
		b.backoff = breakerBaseBackoff
	default:
		b.backoff *= 2
		if b.backoff > breakerMaxBackoff {
			b.backoff = breakerMaxBackoff
		}
	}
	if !b.open {
		b.trips++
	}
	b.open = true
	b.until = now.Add(b.backoff)
}

// state snapshots the breaker for observability.
func (b *breaker) state(now time.Time) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := BreakerState{
		Key:      b.key,
		Open:     b.open,
		Failures: b.failures,
		Trips:    b.trips,
	}
	if b.open && now.Before(b.until) {
		s.RetryAfter = b.until.Sub(now)
	}
	if b.lastErr != nil {
		s.LastErr = b.lastErr.Error()
	}
	return s
}
