// Command hybridsim runs one hybrid peer-to-peer simulation with every knob
// exposed and prints a protocol- and performance-level report. It is the
// free-form companion to paperexp: where paperexp regenerates the paper's
// exact tables, hybridsim answers "what happens if ...".
//
// Example:
//
//	hybridsim -n 1000 -ps 0.7 -delta 3 -ttl 4 -items 5000 -lookups 2000
//	hybridsim -ps 0.5 -tracker
//	hybridsim -ps 0.7 -hetero -topoaware -landmarks 12 -bypass
//	hybridsim -ps 0.8 -crash 0.2
//	hybridsim -ps 0.7 -crash 0.2 -droprate 0.05 -duprate 0.05 -jitter 20ms
//	hybridsim -ps 0.7 -partition 30,60
//	hybridsim -ps 0.1,0.3,0.5,0.7,0.9 -workers 4
//	hybridsim -ps 0.7 -trace run.jsonl -manifest run.json -progress
//
// -ps accepts a comma-separated list; the points run concurrently on a
// worker pool over one shared topology and the reports print in list order.
//
// Observability: -trace writes a JSONL event log (one tracer per sweep point,
// concatenated in point order), -manifest writes a machine-readable run
// manifest with per-point metric snapshots, -progress streams per-point
// completion lines to stderr, and -cpuprofile/-memprofile capture pprof
// profiles. None of these change the report output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/workload"
)

// simParams carries every flag a single simulation run needs.
type simParams struct {
	n, delta, ttl  int
	items, lookups int
	seed           int64
	ps             float64
	placement      string
	hetero         bool
	topoaware      bool
	landmarks      int
	bypass         bool
	tracker        bool
	interests      int
	crash          float64
	zipf           bool
	walk           bool
	caching        bool
	hist           bool
	alpha          int
	pathcache      bool
	route          string

	// Fault injection (see internal/simnet.FaultConfig).
	dropRate, dupRate  float64
	jitter             sim.Time
	partStart, partEnd sim.Time
	hasPartition       bool
	faultSeed          int64
}

// faultsEnabled reports whether any fault-injection flag is set.
func (p simParams) faultsEnabled() bool {
	return p.dropRate > 0 || p.dupRate > 0 || p.jitter > 0 || p.hasPartition
}

func main() { os.Exit(run()) }

func run() int {
	var (
		n         = flag.Int("n", 1000, "number of peers")
		psList    = flag.String("ps", "0.7", "proportion of s-peers (0..1); comma-separated list sweeps")
		delta     = flag.Int("delta", 3, "s-network degree constraint")
		ttl       = flag.Int("ttl", 4, "flood TTL")
		items     = flag.Int("items", 5000, "data items to insert")
		lookups   = flag.Int("lookups", 2000, "lookups to measure")
		seed      = flag.Int64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "parallel workers for a -ps sweep (0 = all CPUs)")
		placement = flag.String("placement", "spread", "data placement: tpeer | spread")
		hetero    = flag.Bool("hetero", false, "enable link heterogeneity support")
		topoaware = flag.Bool("topoaware", false, "enable landmark binning")
		landmarks = flag.Int("landmarks", 8, "number of landmarks (with -topoaware)")
		bypass    = flag.Bool("bypass", false, "enable bypass links")
		tracker   = flag.Bool("tracker", false, "BitTorrent-style tracker s-networks")
		interests = flag.Int("interests", 0, "interest categories (>0 enables interest-based s-networks)")
		crash     = flag.Float64("crash", 0, "fraction of peers to crash before the lookup phase")
		zipf      = flag.Bool("zipf", false, "Zipf-skewed lookup popularity instead of uniform")
		walk      = flag.Bool("walk", false, "random-walk s-network search instead of flooding")
		caching   = flag.Bool("caching", false, "enable the future-work hot-data caching scheme")
		hist      = flag.Bool("hist", false, "record lookup/store histograms and print latency/hop percentiles")
		alpha     = flag.Int("alpha", 1, "parallel lookup probes on the t-network (1 = the paper's single walk)")
		pathcache = flag.Bool("pathcache", false, "enable lookup-path caching (successful lookups deposit route hints)")
		route     = flag.String("route", "finger", "t-network routing strategy: finger | succ (successor-only, the paper's simulated behavior; lookup timeout 180 s)")

		dropRate  = flag.Float64("droprate", 0, "fault injection: per-message drop probability (0..1)")
		dupRate   = flag.Float64("duprate", 0, "fault injection: per-message duplication probability (0..1)")
		jitter    = flag.Duration("jitter", 0, "fault injection: max extra delivery delay per message (e.g. 50ms)")
		partition = flag.String("partition", "", "fault injection: \"start,end\" in simulated seconds; isolates the first half of the stub hosts for that window")
		faultSeed = flag.Int64("faultseed", 1, "fault injection RNG seed (independent of -seed)")

		tracePath    = flag.String("trace", "", "write a JSONL structured event trace to this file")
		traceCap     = flag.Int("tracecap", obs.DefaultTraceCap, "ring-buffer capacity per sweep point (with -trace)")
		manifestPath = flag.String("manifest", "", "write a machine-readable run manifest (JSON) to this file")
		cpuProfile   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile   = flag.String("memprofile", "", "write a pprof heap profile to this file")
		progress     = flag.Bool("progress", false, "stream per-point completion lines to stderr")
	)
	flag.Parse()

	var points []float64
	for _, f := range strings.Split(*psList, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hybridsim: bad -ps value %q: %v\n", f, err)
			return 2
		}
		points = append(points, v)
	}

	var partStart, partEnd sim.Time
	hasPartition := false
	if *partition != "" {
		lo, hi, ok := strings.Cut(*partition, ",")
		a, errA := strconv.ParseFloat(strings.TrimSpace(lo), 64)
		b, errB := strconv.ParseFloat(strings.TrimSpace(hi), 64)
		if !ok || errA != nil || errB != nil || a < 0 || b <= a {
			fmt.Fprintf(os.Stderr, "hybridsim: bad -partition %q: want \"start,end\" in seconds with end > start >= 0\n", *partition)
			return 2
		}
		partStart = sim.Time(a * float64(sim.Second))
		partEnd = sim.Time(b * float64(sim.Second))
		hasPartition = true
	}

	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hybridsim:", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "hybridsim:", err)
		}
	}()

	params := make([]simParams, len(points))
	for i, ps := range points {
		params[i] = simParams{
			n: *n, delta: *delta, ttl: *ttl,
			items: *items, lookups: *lookups,
			seed: *seed, ps: ps, placement: *placement,
			hetero: *hetero, topoaware: *topoaware, landmarks: *landmarks,
			bypass: *bypass, tracker: *tracker, interests: *interests,
			crash: *crash, zipf: *zipf, walk: *walk, caching: *caching,
			hist: *hist, alpha: *alpha, pathcache: *pathcache, route: *route,
			dropRate: *dropRate, dupRate: *dupRate, jitter: sim.Time(jitter.Microseconds()),
			partStart: partStart, partEnd: partEnd, hasPartition: hasPartition,
			faultSeed: *faultSeed,
		}
	}

	// One immutable topology shared by every point; Graph is concurrency-safe
	// after generation, and a single graph keeps a multi-point sweep from
	// paying N Dijkstra caches.
	topo, err := topology.GenerateTransitStub(topology.DefaultConfig(), *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hybridsim:", err)
		return 1
	}

	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(params) {
		w = len(params)
	}

	// One tracer per sweep point so concurrent points never interleave in the
	// ring; the JSONL file is written sequentially in point order afterwards.
	tracers := make([]*obs.Tracer, len(params))
	if *tracePath != "" {
		for i := range tracers {
			tracers[i] = obs.NewTracer(*traceCap)
			tracers[i].SetLabel(fmt.Sprintf("ps=%.2f", params[i].ps))
		}
	}
	var rec *obs.Recorder
	if *manifestPath != "" || *progress {
		rec = obs.NewRecorder("hybridsim", *seed, w, map[string]any{
			"n": *n, "ps": *psList, "delta": *delta, "ttl": *ttl,
			"items": *items, "lookups": *lookups, "placement": *placement,
			"hetero": *hetero, "topoaware": *topoaware, "landmarks": *landmarks,
			"bypass": *bypass, "tracker": *tracker, "interests": *interests,
			"crash": *crash, "zipf": *zipf, "walk": *walk, "caching": *caching,
			"hist": *hist, "alpha": *alpha, "pathcache": *pathcache, "route": *route,
			"droprate": *dropRate, "duprate": *dupRate, "jitter": jitter.String(),
			"partition": *partition, "faultseed": *faultSeed,
		})
		if *progress {
			rec.SetProgress(os.Stderr)
		}
	}

	outs := make([]strings.Builder, len(params))
	errs := make([]error, len(params))
	if w <= 1 {
		for i := range params {
			errs[i] = runSim(&outs[i], topo, params[i], tracers[i], rec)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < w; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(params) {
						return
					}
					errs[i] = runSim(&outs[i], topo, params[i], tracers[i], rec)
				}
			}()
		}
		wg.Wait()
	}

	for i := range params {
		if len(params) > 1 {
			fmt.Printf("===== ps=%.2f =====\n", params[i].ps)
		}
		os.Stdout.WriteString(outs[i].String())
		if errs[i] != nil {
			fmt.Fprintln(os.Stderr, "hybridsim:", errs[i])
			return 1
		}
		if len(params) > 1 {
			fmt.Println()
		}
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hybridsim:", err)
			return 1
		}
		for _, tr := range tracers {
			if err := tr.WriteJSONL(f); err != nil {
				f.Close()
				fmt.Fprintln(os.Stderr, "hybridsim:", err)
				return 1
			}
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "hybridsim:", err)
			return 1
		}
	}
	if *manifestPath != "" {
		if err := rec.WriteManifest(*manifestPath); err != nil {
			fmt.Fprintln(os.Stderr, "hybridsim:", err)
			return 1
		}
	}
	return 0
}

// runSim executes one full simulation and writes the report to w. It only
// touches its own engine and system, so several runSims may execute
// concurrently over the same topology graph. tr and rec may be nil; neither
// affects the report.
func runSim(w io.Writer, topo *topology.Graph, p simParams, tr *obs.Tracer, rec *obs.Recorder) error {
	wallStart := time.Now()
	cfg := core.DefaultConfig()
	cfg.Ps = p.ps
	cfg.Delta = p.delta
	cfg.TTL = p.ttl
	cfg.Heterogeneity = p.hetero
	cfg.Landmarks = p.landmarks
	cfg.Bypass = p.bypass
	cfg.TrackerMode = p.tracker
	cfg.InterestCategories = p.interests
	cfg.RandomWalk = p.walk
	cfg.Caching = p.caching
	cfg.LookupAlpha = p.alpha
	cfg.PathCache = p.pathcache
	strat, err := core.StrategyByName(p.route)
	if err != nil {
		return err
	}
	cfg.Route = strat
	cfg.LookupTimeout = 5 * sim.Second
	if _, linear := strat.(core.SuccessorWalk); linear {
		cfg.LookupTimeout = 180 * sim.Second // covers linear ring traversals
	}
	if p.topoaware {
		cfg.Assignment = core.AssignCluster
	}
	if p.interests > 0 {
		cfg.Assignment = core.AssignInterest
	}
	switch p.placement {
	case "tpeer":
		cfg.Placement = core.PlaceAtTPeer
	case "spread":
		cfg.Placement = core.PlaceSpread
	default:
		return fmt.Errorf("unknown placement %q", p.placement)
	}

	eng := sim.New(p.seed)
	net := simnet.New(eng, topo, simnet.DefaultConfig())
	if p.faultsEnabled() {
		f := simnet.NewFaults(simnet.FaultConfig{
			DropRate:  p.dropRate,
			DupRate:   p.dupRate,
			JitterMax: p.jitter,
			Seed:      p.faultSeed,
		})
		if p.hasPartition {
			stubs := topo.StubNodes()
			f.AddPartition(p.partStart, p.partEnd, stubs[:len(stubs)/2])
		}
		net.SetFaults(f)
	}
	sys, err := core.NewSystem(simnet.NewRuntime(eng, net), cfg, topo.StubNodes()[0])
	if err != nil {
		return err
	}
	// checkQuiesced verifies every system invariant at quiescence. Under
	// armed faults some edge is always mid-repair (dropped HELLOs keep
	// raising false crash alarms), so the check lifts the faults, lets the
	// repairs converge, verifies, and re-arms the same layer (its counters
	// keep accumulating).
	checkQuiesced := func() error {
		f := net.Faults()
		if f != nil {
			net.SetFaults(nil)
			// Long enough for failure detection, repair, and one full
			// join-retry cycle for any peer wedged mid-rejoin.
			settle := 6 * cfg.HelloTimeout
			if s := 2 * cfg.JoinTimeout; s > settle {
				settle = s
			}
			sys.Settle(settle)
		}
		err := sys.CheckInvariants()
		if f != nil {
			net.SetFaults(f)
		}
		return err
	}
	if tr.Enabled() {
		net.SetTracer(tr)
		sys.SetTracer(tr)
	}
	// The registry exists up front so the system records lookup/store
	// histograms while the run executes: -hist prints their percentiles and
	// the manifest snapshot at the end carries them (lookup.latency_us and
	// friends). Recording never feeds back into the simulation (no
	// randomness, no extra clock reads), so the report above these added
	// percentile lines stays byte-identical with -hist on or off.
	var reg *obs.Registry
	if p.hist || rec != nil {
		reg = obs.NewRegistry()
	}
	sys.SetMetrics(reg)

	fmt.Fprintf(w, "building %d peers (ps=%.2f δ=%d ttl=%d placement=%s)...\n", p.n, p.ps, p.delta, p.ttl, cfg.Placement)
	var caps []float64
	if p.hetero {
		caps = workload.CapacityClasses(p.n)
	}
	var ints []int
	if p.interests > 0 {
		ints = make([]int, p.n)
		for i := range ints {
			ints[i] = i % p.interests
		}
	}
	peers, joins, err := sys.BuildPopulation(core.PopulationOpts{N: p.n, Capacities: caps, Interests: ints})
	if err != nil {
		return err
	}
	sys.Settle(10 * sim.Second)
	if err := checkQuiesced(); err != nil {
		return err
	}

	var joinHops metrics.Summary
	for _, js := range joins {
		joinHops.Add(float64(js.Hops))
	}
	fmt.Fprintf(w, "built: %d t-peers, %d s-peers; join hops %s\n",
		len(sys.TPeers()), len(sys.SPeers()), &joinHops)

	// Insert data.
	var keys []string
	if p.interests > 0 {
		keys = workload.InterestKeys(p.items, p.interests)
	} else {
		keys = workload.Keys(p.items)
	}
	stored := 0
	for i, key := range keys {
		r, err := sys.StoreSync(peers[(i*31)%len(peers)], key, "value-of-"+key)
		if err != nil {
			return err
		}
		if r.OK {
			stored++
		}
	}
	fmt.Fprintf(w, "stored %d/%d items; total items in system: %d\n", stored, p.items, sys.TotalItems())

	if p.crash > 0 {
		before := sys.NumPeers()
		rng := eng.Rand()
		var live []*core.Peer
		for _, pr := range peers {
			if pr.Alive() {
				live = append(live, pr)
			}
		}
		for _, idx := range rng.Perm(len(live))[:int(p.crash*float64(len(live)))] {
			live[idx].Crash()
		}
		sys.Settle(3 * cfg.HelloTimeout)
		fmt.Fprintf(w, "crashed %d of %d peers; %d survive; promotions=%d rejoins=%d\n",
			before-sys.NumPeers(), before, sys.NumPeers(),
			sys.Stats().Promotions, sys.Stats().Rejoins)
		if err := checkQuiesced(); err != nil {
			return fmt.Errorf("invariants after crash phase: %w", err)
		}
		fmt.Fprintf(w, "invariants: all hold after crash recovery\n")
	}

	// Lookups.
	var pick workload.Picker = &workload.UniformPicker{N: len(keys), Rng: eng.Rand()}
	if p.zipf {
		zp, err := workload.NewZipfPicker(eng.Rand(), 1.2, 1, len(keys))
		if err != nil {
			return err
		}
		pick = zp
	}
	var hops, lat, contacts metrics.Summary
	fails := 0
	for i := 0; i < p.lookups; i++ {
		origin := peers[(i*53)%len(peers)]
		if !origin.Alive() {
			origin = sys.Peers()[i%sys.NumPeers()]
		}
		r, err := sys.LookupSync(origin, keys[pick.Pick()])
		if err != nil {
			return err
		}
		if r.OK {
			ms := float64(r.Latency) / float64(sim.Millisecond)
			hops.Add(float64(r.Hops))
			lat.Add(ms)
		} else {
			fails++
		}
		contacts.Add(float64(r.Contacts))
	}
	fmt.Fprintf(w, "\nlookups: %d issued, %d failed (%.2f%%)\n", p.lookups, fails, 100*float64(fails)/float64(p.lookups))
	fmt.Fprintf(w, "  hops     %s\n", &hops)
	fmt.Fprintf(w, "  latency  %s ms\n", &lat)
	fmt.Fprintf(w, "  contacts %s (total connum %d)\n", &contacts, int64(contacts.Mean()*float64(contacts.N())))
	if p.hist {
		hl := reg.Histogram("lookup.latency_us").Snapshot()
		hh := reg.Histogram("lookup.hops").Snapshot()
		const ms = 1000.0
		fmt.Fprintf(w, "  latency percentiles (ms): p50=%.3f p90=%.3f p99=%.3f p999=%.3f max=%.3f n=%d\n",
			hl.P50/ms, hl.P90/ms, hl.P99/ms, hl.P999/ms, hl.Max/ms, hl.Count)
		fmt.Fprintf(w, "  hop percentiles: p50=%.0f p90=%.0f p99=%.0f max=%.0f\n",
			hh.P50, hh.P90, hh.P99, hh.Max)
	}

	st := sys.Stats()
	if p.caching {
		cached := 0
		for _, pr := range sys.Peers() {
			cached += pr.NumCached()
		}
		fmt.Fprintf(w, "caching: %d surrogate copies, %d pushes, %d cache hits\n",
			cached, st.CachePushes, st.CacheHits)
	}
	ns := net.Stats()
	fmt.Fprintf(w, "\nprotocol counters: %+v\n", st)
	fmt.Fprintf(w, "network: sent=%d delivered=%d dropped=%d bytes=%d\n",
		ns.MessagesSent, ns.MessagesDelivered, ns.MessagesDropped, ns.BytesSent)
	if f := net.Faults(); f != nil {
		fs := f.Stats()
		fmt.Fprintf(w, "faults injected: dropped=%d duplicated=%d jittered=%d partition_dropped=%d\n",
			fs.Dropped, fs.Duplicated, fs.Jittered, fs.PartitionDropped)
	}
	fmt.Fprintf(w, "simulated time: %v; events: %d\n", eng.Now(), eng.Dispatched())

	if rec != nil {
		reg.Counter("sim.events").Add(int64(eng.Dispatched()))
		reg.Gauge("sim.time_s").Set(float64(eng.Now()) / float64(sim.Second))
		reg.Counter("net.sent").Add(int64(ns.MessagesSent))
		reg.Counter("net.delivered").Add(int64(ns.MessagesDelivered))
		reg.Counter("net.dropped").Add(int64(ns.MessagesDropped))
		reg.Counter("net.local_sent").Add(int64(ns.LocalSent))
		reg.Counter("net.bytes").Add(int64(ns.BytesSent))
		reg.Counter("core.floods").Add(int64(st.FloodsSent))
		reg.Counter("core.ring_forwards").Add(int64(st.RingForwards))
		reg.Counter("core.bypass_uses").Add(int64(st.BypassUses))
		reg.Counter("core.cache_hits").Add(int64(st.CacheHits))
		reg.Gauge("core.peers").Set(float64(sys.NumPeers()))
		reg.Gauge("lookup.failed").Set(float64(fails))
		rec.Point(fmt.Sprintf("ps=%.2f", p.ps), time.Since(wallStart), reg.Snapshot())
	}
	return nil
}
