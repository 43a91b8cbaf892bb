#!/bin/sh
# Introspection smoke gate: start a live hybridnode cluster with -http, poll
# /healthz until the ring-health sampler reports healthy, and assert /metrics
# serves well-formed Prometheus text exposition including the lookup latency
# histogram. Complements the in-tree test (internal/introspect) by exercising
# the real binary end to end, flags and all.
set -eu

cd "$(dirname "$0")/.."

SMOKE="introspect smoke"
. ./scripts/smoke_lib.sh

# Port 0 lets the kernel pick; the bound address is parsed from the banner.
launch hybridnode -n 64 -items 50 -lookups 50 -crash 4 -http 127.0.0.1:0 -linger 60s
await_line "$PID" "$TMP/hybridnode.log" '^introspection: ' 50
ADDR=$(http_addr "$TMP/hybridnode.log")

# The cluster is joining and crash-recovering underneath, so 503s are
# expected transients on the way to a healthy verdict.
await_healthz node "$ADDR"

# /metrics: well-formed exposition with the sampler gauges and, once lookups
# have run, the lookup latency histogram (poll briefly for the latter).
i=0
while [ $i -lt 150 ]; do
    curl -fsS -o "$TMP/metrics.txt" "http://$ADDR/metrics"
    if grep -q '^# TYPE lookup_latency_us histogram$' "$TMP/metrics.txt"; then
        break
    fi
    i=$((i + 1))
    sleep 0.2
done
for want in \
    '^# TYPE lookup_latency_us histogram$' \
    '^lookup_latency_us_bucket{le="+Inf"} ' \
    '^lookup_latency_us_count ' \
    '^# TYPE health_live_peers gauge$' \
    '^# TYPE health_samples counter$'
do
    grep -q "$want" "$TMP/metrics.txt" || {
        head -40 "$TMP/metrics.txt" >&2
        fail "/metrics missing $want"
    }
done
# Every non-comment line must be exactly "name value".
awk '!/^#/ && NF != 2 { bad = 1 } END { exit bad }' "$TMP/metrics.txt" \
    || fail "malformed exposition line in /metrics"

echo "introspect smoke: OK (addr=$ADDR)"
