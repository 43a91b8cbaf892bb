#!/usr/bin/env bash
# Builds the harness into .bench_build/ (the Go build cache, module cache and
# per-user config directory included, so nothing is written outside the
# checkout) and runs it from the checkout root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	go build -C "$root/bench" -o "$build/bench" . >&2
cd "$root"
exec "$build/bench" "$@"
