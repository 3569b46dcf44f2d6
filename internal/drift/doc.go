// Package drift closes the loop between streaming measurement ingest
// and model freshness: it owns a bounded per-cell ring window of
// validated runs appended by POST /v1/measurements, compares the
// window against the training-time distribution with the in-house
// two-sample KS statistic (significance-gated by its p-value) and
// 1-Wasserstein distance, and — after three consecutive breaching
// evaluations (hysteresis, so one noisy batch never flaps a model) —
// dispatches a bounded-concurrency background refit that merges the
// window into the training set and swaps the serving model without
// ever blocking the request path. Failed refits back off with
// deterministic jitter and leave the stale model serving through the
// predictor's existing degraded fallback chain.
//
// The detector and refit loop run at fixed settings (window 256,
// minimum fill 32, p-value gate 0.01, hysteresis 3, 2 refit workers
// behind a queue of 16, backoff 1s doubling to 2m); Config carries
// only the two values callers vary, the KS threshold and the jitter
// seed.
//
// Everything is deterministic under test: time flows through an
// injected randx.Clock, jitter through a seed-derived per-cell RNG,
// and refit completion is observable via Manager.Wait.
package drift
