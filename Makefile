# Build, test, and verification entry points. `make ci` is what the CI
# workflow runs; `make race` and `make fuzz-smoke` exercise the concurrent
# serving layer specifically.

GO ?= go

.PHONY: all build vet test race fuzz-smoke bench fmt-check bench-ingest-smoke bench-labels-smoke bench-mmap-smoke bench-obs-smoke bench-obs-cluster-smoke bench-shard-smoke bench-replica-smoke serve-smoke cluster-smoke ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any Go file is not gofmt-formatted, listing the offenders.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The concurrency layer: stress tests and the batch/singleflight tests all
# match Concurrent|Stress, run under the race detector across every package.
race:
	$(GO) test -race -run 'Concurrent|Stress' ./...

# Short fuzzing passes over the two fuzz targets; long runs are
# `go test -fuzz=FuzzConnectBy ./internal/warehouse/` etc.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzConnectBy -fuzztime=10s ./internal/warehouse/
	$(GO) test -run='^$$' -fuzz=FuzzRelevUserViewBuilder -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzReachLabels -fuzztime=10s ./internal/run/
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotV3 -fuzztime=10s ./internal/warehouse/

bench:
	$(GO) run ./cmd/zoombench

# One-iteration pass over the ingest benchmarks (L1): snapshot load/save in
# both formats plus streaming log ingestion, one iteration each.
bench-ingest-smoke:
	$(GO) test -run '^$$' -bench 'Ingest' -benchtime=1x -benchmem .

# One-iteration pass over the reachability-label benchmarks (P2): cold
# query / derivation per strategy plus the label build itself. Full
# numbers: `go test -bench Labels -benchmem .`
bench-labels-smoke:
	$(GO) test -run '^$$' -bench 'Labels' -benchtime=1x -benchmem .

# One-iteration pass over the mmap-serving benchmarks (L2): v3 open vs v2
# full load, plus the lazy first-touch query. Full numbers:
# `go test -bench Mmap -benchmem .`
bench-mmap-smoke:
	$(GO) test -run '^$$' -bench 'Mmap' -benchtime=1x -benchmem .

# Observability overhead (O1/O2): the warm-query benchmark with metrics
# detached vs. attached vs. fully traced. The attached side must stay
# within ~2% of detached; full numbers:
# `go test -bench ObsOverhead -benchtime=2s .`
bench-obs-smoke:
	$(GO) test -run '^$$' -bench 'ObsOverhead' -benchtime=1x -benchmem .

# Cluster observability overhead (O3): the routed query with tracing off
# vs ?trace=1 cross-process stitching. The absolute comparison table is
# `go run ./cmd/zoombench -only O3`.
bench-obs-cluster-smoke:
	$(GO) test -run '^$$' -bench 'ObsOverhead/routed' -benchtime=1x -benchmem .

# One-iteration pass over the sharded-routing benchmarks (S1): direct vs
# routed query latency at 1 and 4 shards plus the /v1/runs scatter-gather.
# The throughput-scaling table itself is `go run ./cmd/zoombench -only S1`.
bench-shard-smoke:
	$(GO) test -run '^$$' -bench 'Shard' -benchtime=1x -benchmem .

# One-iteration pass over the replicated-routing benchmarks (S2): the
# healthy, failover, and cache-hit forwarding paths through a 2-shard ×
# 2-replica router. The availability/hedging table itself is
# `go run ./cmd/zoombench -only S2`.
bench-replica-smoke:
	$(GO) test -run '^$$' -bench 'Replica' -benchtime=1x -benchmem .

# End-to-end smoke of `zoom serve`: boots the server on a free port against
# the example warehouse, then checks /healthz, /readyz, /metrics, a traced
# query (trace id header + span tree), the slow log, and SIGTERM shutdown.
serve-smoke:
	sh scripts/serve_smoke.sh

# End-to-end smoke of the sharded deployment: `zoom snapshot shard` into 2
# shards, a worker per shard, `zoom router` in front; checks routed traced
# queries, the merged catalog, aggregated readiness, and the dead-worker
# fast-502 path. A second phase runs 2 replicas per shard and checks
# zero-loss failover across a replica kill plus the router response cache.
cluster-smoke:
	sh scripts/cluster_smoke.sh

ci: fmt-check vet build test race fuzz-smoke bench-ingest-smoke bench-labels-smoke bench-mmap-smoke bench-obs-smoke bench-obs-cluster-smoke bench-shard-smoke bench-replica-smoke serve-smoke cluster-smoke
