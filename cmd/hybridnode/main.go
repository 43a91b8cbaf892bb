// Command hybridnode runs the hybrid protocol as a live system: every peer is
// a real node answering heartbeats, joins, stores and lookups against a wall
// clock. The exact same internal/core protocol code that regenerates the
// paper's figures under paperexp here forms a ring, builds s-networks, runs
// failure detection, survives a scripted crash, and answers store/lookup
// requests.
//
// Two transports are available:
//
//   - the default in-process mode runs every peer on the loopback transport
//     of the live runtime (goroutines, channels, wall-clock timers);
//   - with -addr the process becomes one node of a multi-process TCP cluster
//     on the socket runtime (internal/runtime/net). The process with no
//     -bootstrap hosts the well-known server and brokers address allocation;
//     every other process points -bootstrap at it and joins the same ring
//     over real sockets.
//
// Examples:
//
//	hybridnode -n 96 -items 200 -lookups 400 -crash 8
//	hybridnode -n 200 -ps 0.7 -delay 500us -seed 3
//
//	# 3-process TCP cluster on loopback:
//	hybridnode -addr 127.0.0.1:7000 -n 8 -items 40 -linger 1m &
//	hybridnode -addr 127.0.0.1:7001 -bootstrap 127.0.0.1:7000 -n 8 -items 0 -keys 40 -linger 1m &
//	hybridnode -addr 127.0.0.1:7002 -bootstrap 127.0.0.1:7000 -n 8 -items 0 -keys 40 -linger 1m &
//
// The run exits 0 only if the cluster passes every phase: all joins complete,
// the structural audit is satisfied before and after the crash, and the
// post-crash lookup success rate stays above -minsuccess. During -linger,
// SIGINT or SIGTERM shuts the node down cleanly (runtime and introspection
// server closed) and exits with the verdict computed so far.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/introspect"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
	rnet "repro/internal/runtime/net"
	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("hybridnode", flag.ContinueOnError)
	// Wall-clock protocol timers, scaled down from the simulation defaults
	// (HELLO every 2s, 30s operation timeouts) so a demo run finishes in
	// seconds while keeping every Validate constraint: failure detection
	// still takes several missed heartbeats, operations still time out long
	// after any plausible delivery delay. The protocol flags bind into cfg.
	cfg := core.DefaultConfig()
	cfg.HelloEvery = 100 * runtime.Millisecond
	cfg.HelloTimeout = 400 * runtime.Millisecond
	cfg.SuppressTimeout = 50 * runtime.Millisecond
	cfg.LookupTimeout = 3 * runtime.Second
	cfg.JoinTimeout = 3 * runtime.Second
	cfg.FingerRefreshEvery = 250 * runtime.Millisecond
	fs.Float64Var(&cfg.Ps, "ps", 0.6, "proportion of s-peers (0..1)")
	fs.IntVar(&cfg.Delta, "delta", cfg.Delta, "s-network degree constraint")
	fs.IntVar(&cfg.ReplicationK, "k", cfg.ReplicationK, "replication factor: each item lives on its owning t-peer plus k-1 ring successors (1 disables replication)")
	fs.IntVar(&cfg.LookupAlpha, "alpha", cfg.LookupAlpha, "parallel lookup probes on the t-network (1 = single walk)")
	var (
		n          = fs.Int("n", 96, "number of peers this process joins (min 64 in-process, 1 with -addr)")
		items      = fs.Int("items", 200, "data items to store from this process")
		keys       = fs.Int("keys", 0, "size of the shared key universe to look up (0: the keys stored here); lets one cluster process look up items another stored")
		lookups    = fs.Int("lookups", 400, "lookups per measurement phase")
		crash      = fs.Int("crash", 8, "peers to crash abruptly mid-run")
		seed       = fs.Int64("seed", 1, "RNG seed (runs stay nondeterministic: real concurrency orders the draws)")
		delay      = fs.Duration("delay", 200*time.Microsecond, "artificial one-way message delay (in-process transport only)")
		minSuccess = fs.Float64("minsuccess", 0.75, "minimum post-crash lookup success rate")
		httpAddr   = fs.String("http", "", "serve live introspection (\"/metrics\", \"/healthz\", \"/ring\", \"/trace\") on this address, e.g. 127.0.0.1:8080")
		linger     = fs.Duration("linger", 0, "keep the cluster (and -http server) running this long after the phases finish")
		addr       = fs.String("addr", "", "TCP endpoint to listen on (e.g. 127.0.0.1:7000); selects the multi-process socket transport")
		advertise  = fs.String("advertise", "", "endpoint other cluster processes dial to reach this one (default: the -addr listener)")
		bootstrap  = fs.String("bootstrap", "", "the cluster bootstrap's endpoint; empty with -addr set makes this process the bootstrap")
		roleFlag   = fs.String("role", "", "pin every peer this process joins to one role: \"t\" or \"s\" (default: let the server decide)")
		routeFlag  = fs.String("route", "finger", "t-network routing strategy: finger | succ")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	netMode := *addr != ""
	minN := 64
	if netMode {
		// A cluster process contributes its slice of the population; the
		// 64-node floor applies to the deployment, not to each process.
		minN = 1
	}
	if *n < minN {
		fmt.Fprintf(os.Stderr, "hybridnode: -n %d below the %d-node minimum\n", *n, minN)
		return 2
	}
	if *crash < 0 || *crash > *n/2 {
		fmt.Fprintf(os.Stderr, "hybridnode: -crash %d outside [0, n/2]\n", *crash)
		return 2
	}
	if *items < 0 || *keys < 0 || *lookups < 0 {
		fmt.Fprintf(os.Stderr, "hybridnode: -items %d, -keys %d and -lookups %d must not be negative\n", *items, *keys, *lookups)
		return 2
	}
	if !netMode && *bootstrap != "" {
		fmt.Fprintln(os.Stderr, "hybridnode: -bootstrap requires -addr")
		return 2
	}
	var forceRole *core.Role
	switch *roleFlag {
	case "":
	case "t":
		r := core.TPeer
		forceRole = &r
	case "s":
		r := core.SPeer
		forceRole = &r
	default:
		fmt.Fprintf(os.Stderr, "hybridnode: -role %q must be \"t\", \"s\" or empty\n", *roleFlag)
		return 2
	}

	route, err := core.ParseRoute(*routeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hybridnode:", err)
		return 2
	}
	cfg.Route = route
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "hybridnode:", err)
		return 2
	}

	var rt runtime.Runtime
	var closeRT func()
	if netMode {
		nrt, err := rnet.New(rnet.Config{
			Listen:       *addr,
			Advertise:    *advertise,
			Bootstrap:    *bootstrap,
			Messages:     core.WireMessages(),
			Seed:         *seed,
			AwaitTimeout: 60 * time.Second,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "hybridnode:", err)
			return 1
		}
		rt, closeRT = nrt, nrt.Close
		role := "worker"
		if nrt.IsBootstrap() {
			role = "bootstrap"
		}
		fmt.Printf("socket transport: %s node at %s\n", role, nrt.Endpoint())
	} else {
		lrt := live.New(live.Config{
			Seed:         *seed,
			Delay:        *delay,
			AwaitTimeout: 60 * time.Second,
		})
		rt, closeRT = lrt, lrt.Close
	}
	defer closeRT()

	var sys *core.System
	if netMode && *bootstrap != "" {
		// Worker process: the real server lives with the bootstrap; this
		// system hosts peers only.
		sys, err = core.NewPeerSystem(rt, cfg)
	} else {
		sys, err = core.NewSystem(rt, cfg, 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hybridnode:", err)
		return 1
	}
	if netMode {
		// Even the bootstrap's peer table is a partial view once workers
		// join: the audit must consult the cluster directory for remote
		// liveness instead of treating unknown addresses as dead.
		sys.MarkPartial()
	}

	// Live introspection (opt-in): lookup/store histograms, a continuous
	// ring-health sampler, a bounded trace ring, and an HTTP server exposing
	// all of it. None of this feeds back into protocol behavior.
	var sampler *core.HealthSampler
	if *httpAddr != "" {
		reg := obs.NewRegistry()
		tr := obs.NewTracer(0)
		sys.SetMetrics(reg)
		sys.SetTracer(tr)
		sampler = core.NewHealthSampler(sys, reg, cfg.HelloEvery)
		rt.Do(sampler.Start)
		srv, err := introspect.Start(introspect.Config{
			Addr: *httpAddr, Sys: sys, Reg: reg, Tracer: tr, Sampler: sampler,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "hybridnode:", err)
			return 1
		}
		defer srv.Close()
		fmt.Printf("introspection: http://%s/{metrics,healthz,ring,trace,kv}\n", srv.Addr())
	}

	wallStart := time.Now()
	fmt.Printf("joining %d live peers (ps=%.2f δ=%d)...\n", *n, cfg.Ps, cfg.Delta)
	peers, joins, err := sys.BuildPopulation(core.PopulationOpts{N: *n, ForceRole: forceRole})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hybridnode:", err)
		return 1
	}
	var joinHops metrics.Summary
	for _, js := range joins {
		joinHops.Add(float64(js.Hops))
	}
	var tp, sp int
	rt.Do(func() { tp, sp = len(sys.TPeers()), len(sys.SPeers()) })
	fmt.Printf("cluster up in %v: %d t-peers, %d s-peers here; join hops %s\n",
		time.Since(wallStart).Round(time.Millisecond), tp, sp, &joinHops)

	// Let a few heartbeat and finger-refresh rounds run before auditing.
	sys.Settle(5 * cfg.HelloEvery)
	if err := awaitConsistent(rt, sys, 10*time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "hybridnode: audit after build:", err)
		return 1
	}
	fmt.Println("audit: structure consistent after build")

	universe := workload.Keys(*items)
	if *keys > 0 {
		// The shared universe: workload.Keys is deterministic, so every
		// process in a cluster derives the same key names and lookups here
		// can hit items stored by a different process.
		universe = workload.Keys(*keys)
	}
	stored := 0
	if *items > 0 {
		for i := 0; i < *items; i++ {
			key := universe[i%len(universe)]
			r, err := sys.StoreSync(peers[(i*31)%len(peers)], key, "value-of-"+key)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hybridnode:", err)
				return 1
			}
			if r.OK {
				stored++
			}
		}
		fmt.Printf("stored %d/%d items\n", stored, *items)
	}

	okBefore := lookupPhase(sys, peers, universe, *lookups, "pre-crash")
	if okBefore < 0 {
		return 1
	}

	if *crash > 0 {
		// The crash script runs under Do: Crash mutates shared protocol
		// state, and drawing the victims from the runtime RNG must be
		// serialized against the protocol for the same reason.
		rt.Do(func() {
			live := sys.Peers()
			c := *crash
			if c > len(live)/2 {
				c = len(live) / 2
			}
			for _, idx := range rt.Rand().Perm(len(live))[:c] {
				live[idx].Crash()
			}
		})
		// Give the failure detectors a few timeout windows of wall time,
		// then poll the audit until repair converges.
		sys.Settle(3 * cfg.HelloTimeout)
		if err := awaitConsistent(rt, sys, 20*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "hybridnode: audit after crash:", err)
			return 1
		}
		var survivors int
		var st core.SystemStats
		rt.Do(func() { survivors = sys.NumPeers(); st = sys.Stats() })
		fmt.Printf("crashed %d peers; %d survive here; promotions=%d rejoins=%d\n",
			*crash, survivors, st.Promotions, st.Rejoins)
		fmt.Println("audit: structure consistent after crash recovery")
	}

	okAfter := lookupPhase(sys, peers, universe, *lookups, "post-crash")
	if okAfter < 0 {
		return 1
	}
	if *linger > 0 {
		// A lingering node is a server: SIGINT/SIGTERM must shut it down
		// cleanly — runtime and introspection closed by the deferred
		// handlers on this return path — and still report the verdict,
		// instead of dying on the default signal action with the sockets
		// mid-frame.
		sigCh := make(chan os.Signal, 1)
		signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
		fmt.Printf("lingering %v for introspection...\n", *linger)
		select {
		case <-time.After(*linger):
		case sig := <-sigCh:
			fmt.Printf("received %v; shutting down\n", sig)
		}
		signal.Stop(sigCh)
	}
	fmt.Printf("\ntotal wall time: %v\n", time.Since(wallStart).Round(time.Millisecond))
	if *lookups == 0 {
		// No lookup was issued, so there is no success rate to hold to
		// -minsuccess (0/0): the run stands on its audits.
		fmt.Println("no lookups asked for: -minsuccess not applied")
		return 0
	}
	if rate := float64(okAfter) / float64(*lookups); rate < *minSuccess {
		fmt.Fprintf(os.Stderr, "hybridnode: post-crash success %.2f below minimum %.2f\n", rate, *minSuccess)
		return 1
	}
	return 0
}

// lookupPhase issues count lookups of stored keys from surviving peers and
// prints a summary line. It returns the success count, or -1 on a runtime
// error (an Await timeout, i.e. the cluster wedged).
func lookupPhase(sys *core.System, peers []*core.Peer, keys []string, count int, label string) int {
	if len(keys) == 0 || count == 0 {
		return 0
	}
	rt := sys.Runtime()
	var hops, lat metrics.Summary
	ok := 0
	for i := 0; i < count; i++ {
		origin := peers[(i*53)%len(peers)]
		var alive bool
		rt.Do(func() { alive = origin.Alive() })
		if !alive {
			rt.Do(func() {
				if live := sys.Peers(); len(live) > 0 {
					origin = live[i%len(live)]
				}
			})
		}
		r, err := sys.LookupSync(origin, keys[(i*17)%len(keys)])
		if err != nil {
			fmt.Fprintf(os.Stderr, "hybridnode: %s lookup: %v\n", label, err)
			return -1
		}
		if r.OK {
			ok++
			hops.Add(float64(r.Hops))
			lat.Add(float64(r.Latency) / float64(runtime.Millisecond))
		}
	}
	fmt.Printf("%s lookups: %d/%d ok; hops %s; latency %s ms\n", label, ok, count, &hops, &lat)
	return ok
}

// awaitConsistent polls the structural audit under the executor lock until it
// passes or the wall-clock deadline expires. Live runs need the poll: the
// audit can observe a repair mid-flight (a watchdog not yet cancelled, an
// operation not yet drained) that the next heartbeat round resolves. The
// audit itself knows what one process of a cluster can decide (every edge
// with both ends here, remote liveness through the cluster directory) and
// what only a full view can, so there is one call for both transports.
func awaitConsistent(rt runtime.Runtime, sys *core.System, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var err error
		rt.Do(func() { err = sys.CheckInvariants() })
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(100 * time.Millisecond)
	}
}
