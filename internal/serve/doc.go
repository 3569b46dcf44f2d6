// Package serve turns the paper's predictors into a long-running HTTP
// service: the deployment story the paper motivates (predict a full
// run-time distribution from a few probe runs, so operators can make
// scheduling and acquisition decisions online) as a request/response
// workload instead of a batch CLI run.
//
// The server exposes:
//
//	POST /v1/predict/uc1        few-run, same-system prediction (use case 1)
//	POST /v1/predict/uc1/batch  up to 256 probe profiles in one request
//	POST /v1/predict/uc2        cross-system prediction (use case 2)
//	POST /v1/measurements       streaming ingest with drift-triggered refits
//	GET  /v1/systems            systems, benchmark IDs, campaign parameters
//	GET  /v1/status             breakers, degraded counters, model store,
//	                            quarantine and drift cells
//	GET  /v1/metrics            the obs registry: per-route latency
//	                            histograms, status-class counters, cache,
//	                            in-flight and saturation accounting
//	GET  /v1/traces             recent request traces
//	GET  /healthz               liveness
//	GET  /readyz                readiness (flips off during graceful drain)
//
// Performance comes from core.Predictor's trained-model cache: the
// first request for a (system, config, benchmark) key pays for dataset
// assembly and model fitting; every identical request after it is a
// cache hit that only runs the O(predict) path. Requests are bounded by
// a worker semaphore and a per-request timeout, and the server drains
// gracefully, for up to 10s, on context cancellation (SIGTERM in
// cmd/varserve). The trace ring keeps the last 256 request traces, and
// requests of 1s or more are logged as span trees; like the drain
// budget, these are constants, not Config fields.
//
// Request bodies are capped at wire.MaxBodyBytes (413 past it) and
// decoded in one pass by internal/wire, which declines anything but the
// common shape to json.Unmarshal; decode.go holds the read functions.
// A prediction's "n" (at most 100,000 decoded samples) and "bins" (at
// most 1,000) are capped before they size any allocation (400 past
// either).
//
// The package only serves. Load generation lives in perfbench, which
// bit-checks every answer, and the streaming-drift experiment is ext7
// of cmd/experiments, which drives two servers through Handler.
package serve
