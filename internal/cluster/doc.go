// Package cluster is the sharded multi-replica serving tier: a
// router/frontend that partitions model cells across N varserve
// replicas so one process's trained-model cache becomes a fleet's.
//
// Placement is consistent hashing with virtual nodes over the stable
// dataset key (modelstore.DatasetKey, hashed with FNV-1a — the same
// derivation the model registry's content addresses embed, so the
// replica that owns a cell also owns every model trained from it and
// its warm caches stay hot). Ownership is bounded-load: a replica
// holds at most ceil(LoadFactor x keys/replicas) cells, with overflow
// walking the ring, so a hot ring segment cannot pile every cell onto
// one replica.
//
// Routing is cache affinity and nothing else: a request goes to its
// key's owner, then along the ring's fallback sequence. Replica health
// is tracked from the replicas' own /readyz and /v1/status endpoints;
// degraded or breaker-open replicas drain to ring-ordered fallbacks
// without giving up ownership, while failed replicas trigger
// deterministic key remapping with minimal churn (only the dead
// replica's keys move, and they move back when it recovers). Transport
// errors and 502/503/504 answers are retried, one attempt at a time,
// on at most two fallbacks.
//
// The router is exercised against in-process fake replicas by
// internal/cluster/sim — a shared-clock event-loop harness that proves
// the routing invariants (single owner per key, bounded imbalance,
// minimal remap, no lost requests during failover) deterministically,
// before any socket is opened. cmd/varroute wires the same router to
// real HTTP backends.
package cluster
