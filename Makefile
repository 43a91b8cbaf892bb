GO ?= go
# The gate list lives in scripts/check.sh only; `make <gate>` works for each.
GATES := $(shell sh ./scripts/check.sh -l)

.PHONY: all build check vet test race $(GATES) cluster benchscale

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The verify loop: everything a change must pass before it lands. The gate
# list lives in scripts/check.sh only.
check:
	sh ./scripts/check.sh

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One gate at a time: `make determinism`, `make net-smoke`, ... Each gate's
# command line lives in scripts/check.sh; `sh scripts/check.sh nosuchgate`
# lists them.
$(GATES):
	sh ./scripts/check.sh $@

# Interactive: launch an N-process TCP cluster with per-node logs and a
# servers.json manifest; Ctrl-C stops it (see scripts/run_cluster.sh).
cluster:
	sh ./scripts/run_cluster.sh

# Short-mode scale sweep: one 10k-peer point of the Scale experiment,
# reporting bytes/peer, peers/GB and events/sec (see EXPERIMENTS.md "Scale").
# The full 10k/100k/1M ladder is `go run ./cmd/paperexp -run Scale`.
benchscale:
	$(GO) run ./cmd/paperexp -run Scale -quick -n 10000
