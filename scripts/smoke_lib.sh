# Shared by the smoke gates (introspect_smoke.sh, net_smoke.sh,
# replication_smoke.sh), which source it from the repository root after
# setting SMOKE to the gate's name. It builds hybridnode into a scratch
# directory ($TMP), tracks the processes the gate launches, kills them and
# removes the directory on any exit, and reads the node's banners and
# /healthz.

TMP=$(mktemp -d)
PIDS=""
cleanup() {
    for pid in $PIDS; do
        kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

go build -o "$TMP/hybridnode" ./cmd/hybridnode

# fail MESSAGE — report, show the last /healthz body of every node polled
# (a red one names the invariant and the addresses) and every log, exit 1.
fail() {
    echo "$SMOKE: $1" >&2
    for f in "$TMP"/*.healthz "$TMP"/*.log; do
        [ -f "$f" ] && { echo "--- ${f##*/} ---" >&2; cat "$f" >&2; }
    done
    exit 1
}

# launch NAME ARGS... — start a hybridnode logging to $TMP/NAME.log and leave
# its pid in $PID.
launch() {
    node_log="$TMP/$1.log"
    shift
    "$TMP/hybridnode" "$@" > "$node_log" 2>&1 &
    PID=$!
    PIDS="$PIDS $PID"
}

# await_line PID LOG PATTERN TRIES — poll a log for a line, failing if the
# process dies first.
await_line() {
    i=0
    while ! grep -q "$3" "$2" 2>/dev/null; do
        kill -0 "$1" 2>/dev/null || fail "process died waiting for '$3' in $2"
        i=$((i + 1))
        [ $i -gt "$4" ] && fail "timeout waiting for '$3' in $2"
        sleep 0.2
    done
}

# http_addr LOG — extract the introspection address from the banner.
http_addr() {
    sed -n 's|^introspection: http://\([^/]*\)/.*|\1|p' "$1"
}

# cluster_ep LOG — extract the node's cluster endpoint from the banner.
cluster_ep() {
    sed -n 's|^socket transport: .* node at \(.*\)$|\1|p' "$1"
}

# await_healthz NAME ADDR [PATTERN] — poll /healthz (a minute at most) until
# the sampler's verdict is healthy and, if given, PATTERN matches the body.
# 503s are expected transients while the cluster joins or repairs; the last
# body stays in $TMP/NAME.healthz for fail to show.
await_healthz() {
    i=0
    while :; do
        if curl -sS -o "$TMP/$1.healthz" "http://$2/healthz" 2>/dev/null \
            && grep -q '"healthy": true' "$TMP/$1.healthz" \
            && grep -q "${3:-.}" "$TMP/$1.healthz"; then
            return 0
        fi
        i=$((i + 1))
        [ $i -gt 300 ] && fail "$1 /healthz never reported healthy${3:+ with $3}"
        sleep 0.2
    done
}
