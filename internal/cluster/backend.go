package cluster

import (
	"context"
	"time"
)

// Request is one routed call, already reduced to what placement and
// forwarding need: the HTTP shape plus the dataset key the frontend
// derived from the body (modelstore.DatasetKey). Key may be empty for
// unkeyed endpoints (GET /v1/systems), which take the replicas in
// sorted ID order.
type Request struct {
	Method string
	Path   string
	Key    string
	Body   []byte
}

// Response is a replica's answer. Body is the raw JSON payload,
// forwarded verbatim by the frontend.
type Response struct {
	Status     int
	RetryAfter time.Duration // parsed Retry-After, 0 when absent
	Body       []byte
}

// Probe is one health observation of a replica, distilled from its
// /readyz and /v1/status endpoints (or synthesized by the sim's fake
// replicas).
type Probe struct {
	// Ready is the /readyz verdict: false while draining or down.
	Ready bool
	// Status is the replica's own posture string ("ok"/"ready",
	// "degraded", "draining").
	Status string
	// BreakersOpen and Drifted count the replica's open fit breakers
	// and tripped ingest cells — the degraded-drain signals.
	BreakersOpen int
	Drifted      int
}

// Backend is one varserve replica as the router sees it: an ID that is
// its ring identity, a request transport, and a health probe. HTTP
// replicas and the sim's in-process fakes implement it identically,
// which is what lets the sim exercise the real router.
type Backend interface {
	// ID returns the stable replica identity hashed onto the ring.
	ID() string
	// Do forwards one request and returns the replica's response; a
	// non-nil error means transport failure (no response reached us).
	Do(ctx context.Context, req Request) (Response, error)
	// Probe returns the replica's current health; a non-nil error
	// counts as a failed probe.
	Probe(ctx context.Context) (Probe, error)
}
