GO ?= go

.PHONY: all build check vet staticcheck test race faultcheck determinism conformance allocguard routinggate introspect-smoke net-smoke replication-smoke cluster bench benchscale

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Runs staticcheck when installed; falls back to a note otherwise (the
# container may not ship it, and go vet already ran as part of check).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# The verify loop: everything a change must pass before it lands. The gate
# list lives in scripts/check.sh only; the targets below are conveniences for
# running one gate at a time.
check:
	sh ./scripts/check.sh

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Crash-path gate: churn storms and recovery paths under injected message
# faults, invariant-checked at every quiescence point (-count=1 defeats the
# test cache so the gate always executes).
faultcheck:
	$(GO) test ./internal/core -count=1 \
		-run '^(TestChurnStormUnderFaults|TestRecoveryPathsUnderFaults|TestSustainedChurnKeepsInvariants)$$'

# Determinism gate: sweeps with the fault layer compiled in but disabled must
# be byte-identical to ones that never touch it.
determinism:
	$(GO) test ./internal/exp -count=1 \
		-run '^(TestFaultLayerOffIsByteIdentical|TestParallelSweepDeterminism)$$'

# Cross-runtime conformance gate: the same scenario on the DES, the live
# goroutine runtime and the TCP socket runtime, audited on all three, under
# the race detector (the wall-clock runtimes' whole point is real
# concurrency, so -race is load-bearing).
conformance:
	$(GO) test -race ./internal/conformance -count=1

# Allocation budgets: the event-engine hot path and Histogram.Record must
# stay at zero allocs, and a no-churn lookup within its per-op budget.
allocguard:
	$(GO) test . -count=1 -run '^(TestEventEngineAllocFree|TestLookupAllocBudget)$$'
	$(GO) test ./internal/obs -count=1 -run '^TestHistogramRecordAllocFree$$'

# Routing-seam gate (PR 10): the Kademlia baseline's own unit tests, a
# four-arm baseline determinism check (two full RunBaselines passes must be
# byte-identical), the α-parallel + path-cache ablation acceptance test
# (alpha=3+cache must strictly beat alpha=1 on failure ratio or latency at
# the same fault schedule), and the path-cache invalidation suite under
# churn (-count=1 defeats the test cache so the gates always execute).
routinggate:
	$(GO) test ./internal/kad -count=1
	$(GO) test ./internal/exp -count=1 \
		-run '^(TestBaselinesDeterminism|TestAblationRoutingGate)$$'
	$(GO) test ./internal/core -count=1 \
		-run '^(TestPathCache|TestAlphaProbes)'

# Introspection smoke gate: boot a live hybridnode with -http, poll /healthz
# until healthy, and assert /metrics serves well-formed Prometheus exposition.
introspect-smoke:
	sh ./scripts/introspect_smoke.sh

# Multi-process smoke gate: 3-process hybridnode TCP cluster on loopback,
# cross-process lookups, a SIGKILLed worker, /healthz green again on the
# survivors, clean SIGTERM shutdown.
net-smoke:
	sh ./scripts/net_smoke.sh

# Replication smoke gate: 4-process cluster at k=3, 50 keys stored through
# the /kv HTTP surface, both all-s workers SIGKILLed — every key must still
# read back and /healthz must return to a zero replica deficit.
replication-smoke:
	sh ./scripts/replication_smoke.sh

# Interactive: launch an N-process TCP cluster with per-node logs and a
# servers.json manifest; Ctrl-C stops it (see scripts/run_cluster.sh).
cluster:
	sh ./scripts/run_cluster.sh

# Go micro-benchmarks of the figure sweeps, for profiling while you work. The
# repository benchmark, with bounds, is `bash bench/run.sh` (BENCHMARK.json).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x

# Short-mode scale sweep: one 10k-peer point of the Scale experiment,
# reporting bytes/peer, peers/GB and events/sec (see EXPERIMENTS.md "Scale").
# The full 10k/100k/1M ladder is `go run ./cmd/paperexp -run Scale`.
benchscale:
	$(GO) run ./cmd/paperexp -run Scale -quick -n 10000
