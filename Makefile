GO ?= go

.PHONY: all build test race lint vet fmtcheck varlint docscheck persistence drift cluster benchcheck benchcheck-update reproduce reproduce-update fuzz cover

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race sets -timeout because internal/core and internal/report take
# about 15 minutes each under -race on 2 vCPUs, past go test's
# 10-minute default.
race:
	$(GO) test -race -timeout 30m ./...

# lint mirrors the CI lint shard: vet, gofmt, the repository's own
# analyzer suite and the package-docs floor. vet is the gate for
# copied locks (its copylocks pass); varlint's lockcheck checks only
# critical sections. varlint analyses the whole module on every run
# (3.6-4.2 s for `go run ./cmd/varlint ./...` on 2 vCPUs, Go 1.24).
lint: vet fmtcheck varlint docscheck

vet:
	$(GO) vet ./...

# fmtcheck fails on any file gofmt would rewrite, and lists it.
fmtcheck:
	@gofmt -l .
	@test -z "$$(gofmt -l .)"

varlint:
	$(GO) run ./cmd/varlint ./...

# docscheck enforces the documentation floor: every internal package
# must carry a `// Package <name>` comment (conventionally in doc.go).
docscheck:
	@fail=0; \
	for dir in $$(find internal -type d ! -path '*testdata*'); do \
	  ls $$dir/*.go >/dev/null 2>&1 || continue; \
	  grep -q '^// Package ' $$dir/*.go || \
	    { echo "docscheck: $$dir has no package comment"; fail=1; }; \
	done; \
	if [ $$fail -ne 0 ]; then exit 1; fi; \
	echo "docscheck: every internal package has a package comment"

# persistence mirrors the CI model-store shard: save -> restart -> load
# -> predict round trips, format damage handling, and registry
# semantics, bypassing the test cache.
persistence:
	$(GO) test -count=1 -run 'Persistence|Registry|Store|Loaded|Decode|Encode|Fingerprint|Key' ./internal/modelstore/ ./internal/core/

# drift mirrors the CI streaming-ingest shard: windowed drift
# detection, breaker-guarded background refits, copy-on-write merges,
# the measurement ingest handlers and ext7's treatment-and-control
# servers, under the race detector and bypassing the test cache.
drift:
	$(GO) test -race -count=1 ./internal/drift/
	$(GO) test -race -count=1 -run 'Measurements|Drift|Refit|Ingest|BodyCap|Batch' ./internal/serve/ ./internal/core/
	$(GO) test -race -count=1 -run Drift ./cmd/experiments/

# cluster mirrors the CI sharded-serving shard: consistent-hash ring
# property tests, router failover under concurrent probe churn with
# the race detector, and the deterministic multi-replica simulation
# invariants (single owner, bounded imbalance, minimal remap, zero lost
# requests, near-linear virtual-time scaling, pinned fingerprint
# hashes), bypassing the test cache.
cluster:
	$(GO) test -race -count=1 ./internal/cluster/...

# benchcheck guards the tier-1 hot paths (batch prediction, KS/W1
# kernels) against BENCH_baseline.json; >20% ns/op regressions fail.
# Refresh the baseline deliberately with benchcheck-update.
benchcheck:
	$(GO) run ./cmd/benchcheck

benchcheck-update:
	$(GO) run ./cmd/benchcheck -update

# reproduce reruns every paper figure and extension experiment at
# paper scale (about 2 minutes on 2 vCPUs) into a temporary directory
# and fails on any byte that differs from results/SHA256SUMS.
reproduce:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/experiments -ext -out "$$tmp" >/dev/null && \
	(cd "$$tmp" && sha256sum *.txt) | diff -u results/SHA256SUMS - && \
	echo "reproduce: every file matches results/SHA256SUMS"

# reproduce-update regenerates results/ and rewrites its manifest. Run
# it only for an output change that is meant, and say why in
# CHANGES.md.
reproduce-update:
	$(GO) run ./cmd/experiments -ext -out results >/dev/null
	cd results && sha256sum *.txt > SHA256SUMS

# fuzz smokes every fuzz target for 10s each (Go permits one -fuzz
# target per invocation).
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/measure -run '^$$' -fuzz '^FuzzValidateRuns$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzPredictRequestDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzBatchPredictRequestDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzMeasurementsRequestDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzRoutingKey$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/modelstore -run '^$$' -fuzz '^FuzzModelDecode$$' -fuzztime $(FUZZTIME)

# cover prints per-package coverage and enforces the internal/obs gate
# (the observability layer must stay >= 80% covered).
cover:
	$(GO) test -cover ./... | grep -v 'no test files'
	@pct=$$($(GO) test -cover ./internal/obs | grep -o 'coverage: [0-9.]*' | grep -o '[0-9.]*'); \
	echo "internal/obs coverage: $$pct% (gate: 80%)"; \
	awk -v p="$$pct" 'BEGIN { exit (p >= 80 ? 0 : 1) }' || \
	  { echo "FAIL: internal/obs coverage below 80%"; exit 1; }
