// Package obs is the repository's observability layer: request-scoped
// hierarchical tracing, a metrics registry, and the glue that exports
// both — built entirely on the standard library plus the project's own
// primitives.
//
// # Tracing
//
// A Tracer mints root Spans; obs.Start(ctx, name) attaches children to
// whatever span the context carries. Spans record wall-clock intervals
// through a randx.Clock, so traces replay deterministically under a
// FixedClock/StepClock in tests and stay varlint-clean (no ambient
// time.Now). Completed root spans land in a bounded in-memory ring
// buffer (Tracer.Traces) and, past a configurable threshold, in the
// slow-trace log — the first place to look when a prediction's latency
// spikes.
//
// Instrumentation is nil-safe by design: obs.Start on a context without
// a span returns a nil *Span whose methods are no-ops, so hot paths
// (the parallel pool, ml.PredictBatch) pay only a context lookup when
// tracing is off. The measured overhead on the PredictBatch benchmark
// is recorded in EXPERIMENTS.md.
//
// # Metrics
//
// A Registry owns named Counters, Gauges, and LatencyHists. The
// latency histograms reuse the fixed-bin internal/stats Histogram over
// log10(milliseconds) — the paper's own distribution representation,
// dogfooded on the service's behavior — and report approximate
// p50/p90/p95/p99 quantiles by within-bin interpolation (bins are 5%
// wide in log space, so quantiles carry a few percent of relative
// error; Count, Mean, Min, and Max are exact). Registry methods are
// nil-safe too: a nil *Registry hands out nil instruments whose
// recording methods do nothing, so optional instrumentation needs no
// branching at call sites.
//
// Snapshots are plain JSON-encodable values served by varserve's and
// varroute's GET /v1/metrics endpoint, the one metrics surface of each
// process. Profiling is the third leg: varserve's -pprof flag mounts
// net/http/pprof on the serving mux.
package obs
