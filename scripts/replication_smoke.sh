#!/bin/sh
# Replication smoke gate: a 4-process hybridnode cluster at k=3 must survive
# losing half its processes without losing a single key. The bootstrap runs
# t-peers only (so replica chains have somewhere to live), worker 1 is mixed,
# and workers 2 and 3 are forced all-s — under spread placement their s-peers
# hold real data bytes, so SIGKILLing both is genuine data loss at k=1 and a
# pure recovery exercise at k=3: every key must still be readable through the
# owners' authoritative copies and replica chains, and /healthz must settle
# back to a zero replica deficit. Keys go in and come out through the /kv
# HTTP surface, so the client-facing store path is exercised end to end.
set -eu

cd "$(dirname "$0")/.."

KEYS=50

SMOKE="replication smoke"
. ./scripts/smoke_lib.sh

# The replication invariant as the sampler sees it.
NO_DEFICIT='"replica_deficit": 0'

# metric_sum NAME — add one gauge up over the /metrics of both processes that
# serve HTTP. They host every t-peer (workers 2 and 3 are all-s), so for an
# owner-side counter that is the cluster total.
metric_sum() {
    for addr in "$BOOT_HTTP" "$W1_HTTP"; do
        curl -fsS "http://$addr/metrics" || fail "GET /metrics on $addr failed"
    done | awk -v m="$1" '$1 == m { s += $2 } END { printf "%d\n", s }'
}

COMMON="-n 8 -k 3 -items 0 -lookups 0 -crash 0 -linger 300s"

# 1. Bootstrap: hosts the server; all eight of its peers are t-peers so the
# ring is deep enough for k=3 replica chains from the start.
launch boot -addr 127.0.0.1:0 -http 127.0.0.1:0 -role t $COMMON
BOOT_PID=$PID
await_line "$BOOT_PID" "$TMP/boot.log" '^lingering' 300
BOOT_EP=$(cluster_ep "$TMP/boot.log")
BOOT_HTTP=$(http_addr "$TMP/boot.log")
[ -n "$BOOT_EP" ] || fail "no cluster endpoint in bootstrap banner"
[ -n "$BOOT_HTTP" ] || fail "no introspection endpoint in bootstrap banner"

# 2. Worker 1: a mixed-role survivor with its own /kv endpoint, so reads
# after the kill go through a process that stored nothing itself.
launch w1 -addr 127.0.0.1:0 -bootstrap "$BOOT_EP" -http 127.0.0.1:0 $COMMON
W1_PID=$PID
await_line "$W1_PID" "$TMP/w1.log" '^lingering' 300
W1_HTTP=$(http_addr "$TMP/w1.log")
[ -n "$W1_HTTP" ] || fail "no introspection endpoint in worker1 banner"

# 3. Workers 2 and 3: forced all-s, the future SIGKILL victims. Their s-peers
# attach under the surviving processes' t-peers and will hold spread data.
launch w2 -addr 127.0.0.1:0 -bootstrap "$BOOT_EP" -role s $COMMON
W2_PID=$PID
await_line "$W2_PID" "$TMP/w2.log" '^lingering' 300
launch w3 -addr 127.0.0.1:0 -bootstrap "$BOOT_EP" -role s $COMMON
W3_PID=$PID
await_line "$W3_PID" "$TMP/w3.log" '^lingering' 300

await_healthz boot "$BOOT_HTTP" "$NO_DEFICIT"

# 4. Store the key universe through the bootstrap's /kv surface. A request
# can hit a transient routing window during settling, so each key retries.
i=0
while [ $i -lt $KEYS ]; do
    ok=0
    tries=0
    while [ $tries -lt 10 ]; do
        if curl -fsS -X PUT --data "value-$i" \
            "http://$BOOT_HTTP/kv/smoke-$i" >/dev/null 2>&1; then
            ok=1
            break
        fi
        tries=$((tries + 1))
        sleep 0.3
    done
    [ "$ok" = "1" ] || fail "PUT smoke-$i never succeeded"
    i=$((i + 1))
done

# 5. The cluster must report zero replica deficit once the chains settle, and
# every key must be readable cross-process before the kill.
await_healthz boot "$BOOT_HTTP" "$NO_DEFICIT"
await_healthz w1 "$W1_HTTP" "$NO_DEFICIT"
i=0
while [ $i -lt $KEYS ]; do
    GOT=$(curl -fsS "http://$W1_HTTP/kv/smoke-$i" 2>/dev/null) \
        || fail "pre-kill GET smoke-$i via worker1 failed"
    [ "$GOT" = "value-$i" ] || fail "pre-kill smoke-$i returned '$GOT'"
    i=$((i + 1))
done

# The incremental path is the one in use: an item costs its eager push and
# one tracked delta (2 copies), plus each owner's first full push — not a
# re-send of the owner's whole set per tick (about 20 copies per key here).
# The gauges are set by the health sampler, so wait for them to stand still.
PUSHED=-1
for try in 1 2 3 4 5 6 7 8 9 10; do
    prev=$PUSHED
    PUSHED=$(metric_sum core_replicas_pushed)
    [ "$PUSHED" -gt 0 ] && [ "$PUSHED" = "$prev" ] && break
    sleep 0.5
done
[ "$PUSHED" -gt 0 ] || fail "core_replicas_pushed is 0 after $KEYS PUTs at k=3"
[ "$PUSHED" -le $((3 * KEYS)) ] \
    || fail "$PUSHED replica copies pushed for $KEYS keys (more than 3 per key): replication is re-sending stored state"

# 6. SIGKILL both all-s workers at once: sixteen peers — and whatever data
# was spread onto them — vanish mid-heartbeat.
kill -9 "$W2_PID" "$W3_PID"
wait "$W2_PID" 2>/dev/null || true
wait "$W3_PID" 2>/dev/null || true

# 7. Survivors must repair the trees and re-converge to zero replica deficit.
sleep 2
await_healthz boot "$BOOT_HTTP" "$NO_DEFICIT"
await_healthz w1 "$W1_HTTP" "$NO_DEFICIT"

# 8. Every key must still be readable through the survivor: served from the
# owners' authoritative copies and replica chains, with read-repair filling
# the holes the dead s-peers left. Retries absorb in-flight repair.
i=0
while [ $i -lt $KEYS ]; do
    ok=0
    tries=0
    while [ $tries -lt 25 ]; do
        GOT=$(curl -fsS "http://$W1_HTTP/kv/smoke-$i" 2>/dev/null) || GOT=""
        if [ "$GOT" = "value-$i" ]; then
            ok=1
            break
        fi
        tries=$((tries + 1))
        sleep 0.2
    done
    [ "$ok" = "1" ] || fail "key smoke-$i lost after killing both s-workers"
    i=$((i + 1))
done

# 9. Clean shutdown: SIGTERM both survivors; the signal handler must close
# the runtime and exit 0.
kill -TERM "$BOOT_PID" "$W1_PID"
wait "$BOOT_PID" || fail "bootstrap exited nonzero after SIGTERM"
wait "$W1_PID" || fail "worker1 exited nonzero after SIGTERM"

echo "replication smoke: OK ($KEYS/$KEYS keys survived losing 2 of 4 processes at k=3; $PUSHED replica copies pushed for $KEYS PUTs)"
