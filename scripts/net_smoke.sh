#!/bin/sh
# Multi-process smoke gate for the TCP socket runtime: boot a 3-process
# hybridnode cluster on loopback (one bootstrap + two workers, kernel-picked
# ports), have the bootstrap store a shared key universe and each worker look
# it up over the wire, then SIGKILL one worker and require the survivors'
# /healthz to go green again — the cross-process crash-repair path (conn-drop
# detection, server arbitration, s-peer rejoin) exercised end to end.
# Finally SIGTERM the survivors and require clean exits: the signal handler
# must shut the sockets down and still report the run's verdict.
set -eu

cd "$(dirname "$0")/.."

SMOKE="net smoke"
. ./scripts/smoke_lib.sh

COMMON="-n 8 -items 0 -keys 40 -lookups 40 -crash 0 -minsuccess 0.9 -linger 300s"

# 1. Bootstrap: hosts the server, stores the 40-key universe.
launch boot -addr 127.0.0.1:0 -http 127.0.0.1:0 \
    -n 8 -items 40 -keys 40 -lookups 40 -crash 0 -minsuccess 0.9 -linger 300s
BOOT_PID=$PID
await_line "$BOOT_PID" "$TMP/boot.log" '^stored 40/40' 150
# Wait for the bootstrap to finish every phase (it prints the linger banner)
# before starting workers: its lookup phases must not race worker join churn,
# and only a lingering node has the signal handler installed for step 6.
await_line "$BOOT_PID" "$TMP/boot.log" '^lingering' 300
BOOT_EP=$(cluster_ep "$TMP/boot.log")
BOOT_HTTP=$(http_addr "$TMP/boot.log")
[ -n "$BOOT_EP" ] || fail "no cluster endpoint in bootstrap banner"
[ -n "$BOOT_HTTP" ] || fail "no introspection endpoint in bootstrap banner"

# 2. Worker 1: joins over TCP, looks up the keys the bootstrap stored.
# Sequential starts keep each lookup phase free of concurrent join churn.
launch w1 -addr 127.0.0.1:0 -bootstrap "$BOOT_EP" -http 127.0.0.1:0 $COMMON
W1_PID=$PID
await_line "$W1_PID" "$TMP/w1.log" '^lingering' 300
W1_HTTP=$(http_addr "$TMP/w1.log")
[ -n "$W1_HTTP" ] || fail "no introspection endpoint in worker1 banner"

# 3. Worker 2: same dance, then it becomes the crash victim.
launch w2 -addr 127.0.0.1:0 -bootstrap "$BOOT_EP" -http 127.0.0.1:0 $COMMON
W2_PID=$PID
await_line "$W2_PID" "$TMP/w2.log" '^lingering' 300

# Cross-process lookups must actually succeed: each worker stored nothing,
# so every hit came over the wire from another process's peers.
for log in w1 w2; do
    OK=$(sed -n 's|^pre-crash lookups: \([0-9]*\)/40.*|\1|p' "$TMP/$log.log")
    [ -n "$OK" ] && [ "$OK" -ge 36 ] || fail "$log cross-process lookups: ${OK:-none}/40"
done

# 4. Kill worker 2 abruptly: 8 peers vanish mid-heartbeat. The bootstrap sees
# the TCP connection drop, the failure detectors and the server's crash
# arbitration repair the ring and trees across the surviving processes.
kill -9 "$W2_PID"
wait "$W2_PID" 2>/dev/null || true

# 5. Survivors' /healthz must go green again within the repair budget. Give
# the failure detectors a few heartbeat-timeout windows first, so the poll
# cannot pass on a sample taken before the damage registered.
sleep 2
await_healthz boot "$BOOT_HTTP"
await_healthz w1 "$W1_HTTP"

# 6. Clean shutdown: SIGTERM both survivors; the signal handler must close
# the runtime and report the verdict, i.e. exit 0.
kill -TERM "$BOOT_PID" "$W1_PID"
wait "$BOOT_PID" || fail "bootstrap exited nonzero after SIGTERM"
wait "$W1_PID" || fail "worker1 exited nonzero after SIGTERM"

echo "net smoke: OK (bootstrap=$BOOT_EP, survivors repaired after kill)"
