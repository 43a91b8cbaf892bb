#!/bin/sh
# The repo's verify loop and its only gate list (`make check` runs this
# script): build, gofmt, vet, tests, the race detector over the full suite
# (the parallel sweep runner and the shared topology cache are exercised
# concurrently by the exp tests, so -race is load-bearing here), the
# benchmark harness's own tests, and the named gates below (staticcheck, when
# installed, is the first). Nothing here compares timings: performance is measured by
# `bash bench/run.sh` against the bounds in BENCHMARK.json.
#
# `sh scripts/check.sh <gate>...` runs only the named gates (the Makefile's
# per-gate targets call this), so each gate's command line exists once;
# `sh scripts/check.sh -l` lists them, which is where the Makefile gets its
# target names.
set -eu

cd "$(dirname "$0")/.."

GATES="staticcheck faultcheck determinism conformance allocguard routinggate retired introspect-smoke net-smoke replication-smoke scale"

gate() {
    case "$1" in
    staticcheck)
        # Lint beyond go vet, when installed: the container may not ship it.
        if command -v staticcheck >/dev/null 2>&1; then
            echo "== staticcheck ./..."
            staticcheck ./...
        else
            echo "== staticcheck not installed; skipping (go vet already ran)"
        fi
        ;;
    faultcheck)
        # Crash-path gate: churn storms and recovery paths under injected
        # message faults, with the full invariant checker run at every
        # quiescence point, and the replication churn that holds every
        # hello tick's skipped scans to the full scans they replace.
        # -count=1 defeats the test cache so the gate always actually
        # executes. Then the two paper-scale crash repros the audit once
        # failed (full-scale ChurnStorm, ~5 s, and a 1000-peer crash wave at
        # p_s 0.9, ~2 s) must exit 0.
        echo "== fault-injection invariant gate"
        go test ./internal/core -count=1 \
            -run '^(TestChurnStormUnderFaults|TestRecoveryPathsUnderFaults|TestSustainedChurnKeepsInvariants|TestSkippedScansMatchFullScan)$'
        go run ./cmd/paperexp -run ChurnStorm >/dev/null
        go run ./cmd/hybridsim -ps 0.9 -crash 0.2 >/dev/null
        ;;
    determinism)
        # Determinism gate: with the fault layer compiled in but disabled,
        # sweep output must stay byte-identical to a build with no fault
        # layer armed, at any worker count — and every experiment's quick
        # output (plain, with -hist, and the labels and metric keys of its
        # manifest) and hybridsim's pinned command lines must match what is
        # committed in internal/exp/testdata. paperexp's own tests hold its
        # stdout to the same bytes with and without the observability flags.
        echo "== determinism gate (fault layer off, worker counts, quick-output, -hist, manifest and hybridsim goldens)"
        go test ./internal/exp -count=1 \
            -run '^(TestFaultLayerOffIsByteIdentical|TestParallelSweepDeterminism|TestQuickOutputGolden|TestHistOutputGolden|TestManifestLabelsGolden|TestFreeformGolden)$'
        go test ./cmd/hybridsim -count=1 -run '^TestStdoutGolden$'
        go test ./cmd/paperexp -count=1
        ;;
    conformance)
        # Cross-runtime conformance gate: the same join/store/crash/lookup
        # scenario on the DES, the live goroutine runtime and the TCP socket
        # runtime, the structural audit green on all three, under the race
        # detector. -count=1 so the wall-clock halves always execute. Then
        # the executor suite on both carriers, the run-queue and outbox
        # bounds and the wedged-peer and late-bootstrap tests, three times
        # under -race: their interleavings differ run to run.
        echo "== cross-runtime conformance gate (DES vs live vs net, -race; runtime suites x3)"
        go test -race ./internal/conformance -count=1
        go test -race ./internal/runtime/... -count=3
        ;;
    allocguard)
        # Allocation budgets: the event-engine hot path must stay at zero
        # allocs per event, a timer re-arm, cancel and early-stopping
        # RunUntil at zero per cycle, a topology latency lookup at zero per
        # call, a no-churn lookup within its per-op budget, and a finger
        # refresh answered in place and the α-probe candidate ranking must
        # allocate nothing; the run-length finger table must match the
        # slot-and-tag model it replaced and hold a settled t-peer's finger
        # state at 512 bytes or less, with Peer and its ring state (tState)
        # pinned at their sizes; in a quiet system no HELLO or ack may
        # cancel an event and only the tickers and messages in flight may be
        # pending. -count=1 defeats the cache; these are the cheap tripwires
        # for the pooling work.
        echo "== allocation budget gate (event engine, timer re-arm, topology latency, lookup path, local finger refresh, hop ranking, finger table, quiet HELLO path, histogram record)"
        go test . -count=1 -run '^(TestEventEngineAllocFree|TestTimerRearmAllocFree|TestLatencyAllocFree|TestLookupAllocBudget|TestFingerRefreshLocalAllocFree)$'
        go test ./internal/core -count=1 -run '^(TestNextHopsAllocFree|TestFingerTableMatchesSlotModel|TestFingerTableFootprint|TestQuietHelloPathCancelsNothing)$'
        go test ./internal/obs -count=1 -run '^TestHistogramRecordAllocFree$'
        ;;
    routinggate)
        # Routing-seam gate: Kademlia baseline unit tests, baseline
        # determinism (two full RunBaselines passes byte-identical), the
        # α-parallel ablation acceptance test, RouteSuccessor held to the
        # recorded successor-only hops, and a deleted key staying deleted
        # past the surrogate cache.
        echo "== routing-seam gate (kad, baseline determinism, alpha ablation)"
        go test ./internal/kad -count=1
        go test ./internal/exp -count=1 \
            -run '^(TestBaselinesDeterminism|TestAblationRoutingGate)$'
        go test ./internal/core -count=1 \
            -run '^(TestDeletedKeyDoesNotResurrect|TestAlphaProbes|TestStrategyEquivalence)'
        ;;
    retired)
        # Names deleted on purpose must not come back: the routing bool
        # beside the strategy seam, the registry's Timer kind, hybridsim's
        # flag for the former; the programs nothing ran (topogen, four of the
        # examples), sim's copy of the runtime timers, the metrics types
        # without a caller, the recorded-output files, the `bench` Make
        # target and core's printf trace hook beside obs.Tracer; exp's one-line
        # aliases and its two lookup issuers (one function with an origin
        # chooser now), the socket runtime's three timeouts nobody set
        # (constants now) and five methods nobody called; the socket
        # runtime's second dial path with its negative cache and backlog,
        # and live's mailbox goroutine per address; the broker requests a
        # pushed directory replaced (resolve, attached, the register's
        # response) with their payloads and the markDeadAll sweep; the dense
        # stub latency matrix the hierarchical table replaced; the second
        # source of defaults (core's zero-fill, exp's Options fill and its
        # seed sentinel) and the eleven config fields nobody set (constants
        # now); the interest Assignment value, which a category count
        # replaced before interest mode itself went, the exact-sample and map-backed metrics types metrics.PDF
        # replaced, and Freeform's fault seed beside its simnet.FaultConfig;
        # the lookup-path cache with its hint messages, counters and flag,
        # the Gnutella baseline's random walk nobody ran, and the engine
        # stepper and degree histogram nobody called; the s-network random
        # walk with its -walk flag and experiment, prefix search, the two
        # non-random id policies with their host coordinates, and the
        # second interest-key parser; interest-category s-networks with their
        # category ids, key parser, key generator, segment-id helpers and
        # -interests flag, and refloods; the per-query contact table beside
        # the op table with its audit row, the write-only op and peer fields,
        # the three cache knobs (constants now) and exp's copy of the key
        # generator; the routing-strategy interface with its two
        # implementations and name lookup, which the Route enum replaced; the
        # engine's binary event heap and its slice, which the radix heap
        # replaced; the per-slot finger tag array and its sizing helper,
        # which the run-length finger table replaced; the replication
        # fields of Peer, which one lazily allocated replState replaced; the
        # standalone Chord package (its import path and any chord.X use),
        # which the hybrid at p_s = 0 replaced as the structured baseline;
        # the batch sort and the owned-set appender, which the DID-sorted
        # item sets and their merge replaced; the timer per watched
        # neighbor, which a deadline checked on the hello tick replaced; the
        # Assignment knob with its three values (Landmarks > 0 is topology
        # awareness, 0 the smallest rule), the registry's unsorted mode and
        # its separate size map, which one sorted table of t-peers and sizes
        # replaced; the manifest's run-level metrics with the recorder's two
        # methods nobody called, and idspace.Add; the server's s-network
        # size increments and decrements, which the t-peer's exact subtree
        # report replaced as the one writer.
        # CHANGES.md and ROADMAP.md may tell the story; this script
        # has to spell the patterns.
        echo "== retired-name gate (deleted flags, types, programs, files and Make targets stay deleted)"
        if grep -rnE 'SuccessorRouting|SetTraceHook|\.tracef\(|obs\.Timer|\.Timer\(|(^|[^[:alnum:]_-])-linear([^[:alnum:]_-]|$)|cmd/topogen|examples/(filesharing|churnstorm|tracker|hotspot)|sim\.New(Timer|Ticker)|metrics\.Ratio|RenderSeries|MassAtOrBelow|results_full\.txt|test_output\.txt|bench_output\.txt|make bench([^[:alnum:]_-]|$)|capacities13|keysFor\(|lookupFrom|lookupBatch|(Dial|Write)Timeout:|\.cfg\.(Dial|RPC|Write)Timeout|(Dial|RPC|Write)Timeout +time\.Duration|CheckDegrees|CheckDataOwnership|CheckWatchdogs|\.Partial\(\)|\.SetDuration\(|dialFailAt|dialBackoff|dialAndInstall|connTo\(|dialState|deliverLoop|ctrlResolve|ctrlAttached|ctrlRegisterResp|endpointOf|resolvePayload|boolPayload|markDeadAll|latencyMatrix|stubMatrix|HasStubMatrix|withDefaults|SeedZero([^[:alnum:]_]|$)|\.normalize\(\)|MessageBytes|BaseCapacity|SuccessorListLen|FixFingersPerRound|RPCTimeout|AssignInterest|metrics\.(Sample|NewHistogram)|FaultSeed|PathCache|pathcache|routeHint|hintDrop|PathHint|NumHints|hint_(uses|drops)|LookupWalk|RunSteps|DegreeHistogram|RandomWalk|WalkCount|WalkTTL|walkReq|startWalks|WalksSent|ExtWalk|SearchPrefix|SearchSync|searchReq|searchHit|SearchesSent|IDGen|IDLocation|IDHashAddr|HostCoord|KeyCategory|(^|[^[:alnum:]_-])-walk([^[:alnum:]_-]|$)|InterestCategories|InterestKeys|CategoryID|CategoryOf|segmentID|itemSID|Reflood|(^|[^[:alnum:]_-])-interests([^[:alnum:]_-]|$)|contact_leaks|contactLeaks|takeContacts|newQID|ringMiss|joinAttempts|CacheHotThreshold|CacheWindow|CacheTTL|keysN\(|RouteStrategy|StrategyByName|FingerWalk|SuccessorWalk\{\}|Route\.NextHops?\(|eventQueue|queue\.items|fingerTag|ensureFingers|\.rep(Round|Acks|Wrapped|Digest|Dirty|Ticks|Deficit|Pending|Succ)([^[:alnum:]_]|$)|repro/internal/chord|(^|[^[:alnum:]_])chord\.[A-Z]|sortItemsByDID|appendOwnedExtra|nbrs\[[a-z]+\]\.timer|AssignRandom|AssignSmallest|AssignCluster|[Cc]fg\.Assignment|type Assignment |ringUnsorted|snetSize\[|\(r \*Recorder\) (SetMetrics|Points)\(|rec\.(SetMetrics|Points)\(|r\.metrics([^[:alnum:]_]|$)|idspace\.Add\(|func Add\(|sRegister|sUnregister|sv\.resize\(' \
            --include='*.go' --include='*.md' --include='*.sh' --include=Makefile \
            --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md --exclude=check.sh \
            --exclude-dir=.git --exclude-dir=.bench_build .; then
            echo "check: a retired name reappeared (see above)" >&2
            exit 1
        fi
        ;;
    introspect-smoke)
        # Introspection smoke gate: boot a live hybridnode with -http, poll
        # /healthz until the ring-health sampler reports healthy, and assert
        # /metrics serves well-formed Prometheus exposition.
        echo "== introspection smoke gate (hybridnode -http)"
        sh ./scripts/introspect_smoke.sh
        ;;
    net-smoke)
        # Multi-process smoke gate: a 3-process hybridnode TCP cluster on
        # loopback — cross-process store/lookup, a SIGKILLed worker, /healthz
        # back to green on the survivors, clean SIGTERM shutdown.
        echo "== multi-process socket smoke gate (hybridnode -addr/-bootstrap)"
        sh ./scripts/net_smoke.sh
        ;;
    replication-smoke)
        # Replication smoke gate: a 4-process cluster at k=3 stores 50 keys
        # through the /kv surface, both all-s workers are SIGKILLed, and
        # every key must still be readable with /healthz back at zero replica
        # deficit.
        echo "== replication smoke gate (hybridnode -k 3, /kv, 2-process kill)"
        sh ./scripts/replication_smoke.sh
        ;;
    scale)
        # Quick scale point: one reduced build-and-drive pass through the
        # Scale experiment (peers/GB, events/sec). Catches OOM-class
        # regressions in the dense peer/finger tables; the full 10k/100k/1M
        # ladder is `make benchscale` and `go run ./cmd/paperexp -run Scale`.
        # The same point's deterministic table is held to its golden, its
        # live heap per peer to a recorded bound (TestScaleBytesPerPeer), and
        # the sizes a run picks to TestScaleSizes.
        echo "== quick scale sweep (Scale, n=2000)"
        go run ./cmd/paperexp -run Scale -quick -n 2000 >/dev/null
        go test ./internal/exp -count=1 -run '^(TestScaleQuickGolden|TestScaleBytesPerPeer|TestScaleSizes)$'
        ;;
    *)
        echo "check.sh: unknown gate '$1' (gates: $GATES)" >&2
        exit 2
        ;;
    esac
}

if [ "${1:-}" = "-l" ]; then
    echo "$GATES"
    exit 0
fi

if [ $# -gt 0 ]; then
    for g in "$@"; do
        gate "$g"
    done
    exit 0
fi

echo "== go build ./..."
go build ./...

# gofmt over every tracked Go file, the nested bench module included:
# any file it names fails the loop.
echo "== gofmt -l (tracked .go files)"
unformatted=$(gofmt -l $(git ls-files '*.go'))
if [ -n "$unformatted" ]; then
    echo "$unformatted"
    echo "check: run gofmt -w on the files above" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go test ./..."
go test ./...

echo "== go test -race ./..."
go test -race ./...

# The benchmark harness is a nested module, invisible to ./... above; its
# tests drive runtime/net and runtime/live harder than anything in tier-1
# (TestSmoke boots six TCP clusters).
echo "== bench module tests (cd bench && go test ./...)"
(cd bench && go test ./...)

for g in $GATES; do
    gate "$g"
done

echo "check: OK"
