package exp

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// RunScale is the memory-density and throughput sweep: it builds systems of
// 10k, 100k and 1M peers (one point at a reduced size in quick mode) and
// reports how many peers fit in a gigabyte of heap and how many simulation
// events per wall-clock second the build-and-drive workload sustains.
//
// The sweep exists to keep the per-peer memory footprint honest: the paper's
// pitch is scalability, and a simulator that needs tens of GB for a million
// peers cannot check any claim at that scale. The rendered table carries only
// engine-deterministic columns (sizes, event counts, lookup outcomes); the
// host-dependent measurements (bytes/peer, peers/GB, events/sec) go into the
// result's key values and notes, so diffing the CSV across runs and machines
// stays meaningful.
//
// Methodology: heap cost is the growth of runtime.MemStats.HeapAlloc across
// the population build, read after a forced GC on both sides, so it counts
// live protocol state (peers, tables, timers, pooled events) rather than
// transient garbage. Throughput divides the engine's dispatched-event counter
// by the wall clock of the whole point (build, maintenance rounds, store and
// lookup batches).
func RunScale(o Options) (*Result, error) {
	res := newResult("Scale")

	t := metrics.NewTable("Scale: build-and-drive at increasing population sizes",
		"n", "t_peers", "s_peers", "sim_events", "sim_time_s", "lookups_ok", "lookups")
	for _, n := range scaleSizes(o) {
		p, err := runScalePoint(o, n)
		if err != nil {
			return nil, fmt.Errorf("scale point n=%d: %w", n, err)
		}
		t.AddRow(n, p.tPeers, p.sPeers, p.events, fmt.Sprintf("%.1f", p.simSeconds), p.lookupsOK, p.lookups)

		res.Values[fmt.Sprintf("bytes_per_peer_n%d", n)] = p.bytesPerPeer
		res.Values[fmt.Sprintf("peers_per_gb_n%d", n)] = p.peersPerGB
		res.Values[fmt.Sprintf("events_per_sec_n%d", n)] = p.eventsPerSec
		res.Notes = append(res.Notes, fmt.Sprintf(
			"n=%d: %.0f bytes/peer -> %.0f peers/GB, %.2fM events/sec over %.1fs wall (host-dependent)",
			n, p.bytesPerPeer, p.peersPerGB, p.eventsPerSec/1e6, p.wall.Seconds()))

		if o.Obs != nil {
			reg := obs.NewRegistry()
			reg.Gauge("scale.bytes_per_peer").Set(p.bytesPerPeer)
			reg.Gauge("scale.peers_per_gb").Set(p.peersPerGB)
			reg.Gauge("scale.events_per_sec").Set(p.eventsPerSec)
			reg.Counter("scale.sim_events").Add(int64(p.events))
			reg.Gauge("scale.peers").Set(float64(n))
			o.Obs.Point(fmt.Sprintf("Scale n=%d", n), p.wall, reg.Snapshot())
		}
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"peers/GB counts live heap growth across the build (post-GC), not transient garbage; events/sec is wall-clock and varies by host")
	return res, nil
}

// scaleSizes returns the population sizes to run. At the default size the
// full sweep is the 10k/100k/1M ladder; any other -n runs that one size
// with the ladder's items and lookups, so one rung (`-n 100000`) can be
// re-measured without the ~30 min 1M point. Quick mode runs a single reduced
// point, honoring -n up to 10k so `make benchscale` (N=10k) and the test
// suite (N in the hundreds) share the code path.
func scaleSizes(o Options) []int {
	if o.Quick {
		n := o.N
		if n <= 0 || n > 10_000 {
			n = 10_000
		}
		return []int{n}
	}
	if o.N != DefaultOptions().N {
		return []int{o.N}
	}
	return []int{10_000, 100_000, 1_000_000}
}

// scaleConfig is expConfig retuned for very large populations: assignment
// must be O(1) per join (random instead of smallest-network scans), and the
// maintenance period is stretched so the build phase is dominated by joins
// rather than by HELLO rounds over an ever-growing population. The settle
// phase still runs full HELLO rounds — that is the maintenance workload the
// throughput figure measures.
func scaleConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Ps = 0.99 // ~1% t-peers: 10k-peer ring under the 1M-peer point
	cfg.Delta = 3
	// With ~1% t-peers an s-network holds ~100 peers; a δ=3 tree of that
	// size measured at most 9 levels deep at N=2000 and 10 at 10k. A flood
	// from the root covers it at TTL 8, but a lookup from an s-peer of the
	// owning s-network floods from the requester, and when the holder is
	// more than 8 tree hops away it fails: 6 of 400 lookups at N=2000 and
	// 6 of 5000 at 10k (47 of 400 at the paper-scale TTL of 4).
	cfg.TTL = 8
	cfg.Assignment = core.AssignRandom
	cfg.HelloEvery = 2000 * sim.Second
	cfg.HelloTimeout = 4800 * sim.Second
	cfg.FingerRefreshEvery = 2000 * sim.Second
	cfg.LookupTimeout = 30 * sim.Second
	cfg.JoinTimeout = 40 * sim.Second
	return cfg
}

// scalePoint is the measurement of one population size.
type scalePoint struct {
	tPeers, sPeers int
	events         uint64
	simSeconds     float64
	lookups        int
	lookupsOK      int
	bytesPerPeer   float64
	peersPerGB     float64
	eventsPerSec   float64
	wall           time.Duration
}

// runScalePoint builds one system of n peers and drives it through a store
// and lookup workload plus two full maintenance rounds.
func runScalePoint(o Options, n int) (p scalePoint, err error) {
	start := time.Now()

	// A compact physical network: peers share stub hosts, so the host graph
	// does not need to grow with the population; its latency table is a few
	// KiB and counts toward no peer.
	tc := expTopoConfig(Options{Quick: true})
	topo, err := topology.GenerateTransitStub(tc, o.topoSeed())
	if err != nil {
		return p, err
	}
	cfg := scaleConfig()
	eng := sim.New(o.Seed + int64(n))
	net := simnet.New(eng, topo, simnet.DefaultConfig())
	sys, err := core.NewSystem(simnet.NewRuntime(eng, net), cfg, topo.StubNodes()[0])
	if err != nil {
		return p, err
	}

	heapBefore := heapAlloc()
	peers, _, err := sys.BuildPopulation(core.PopulationOpts{N: n})
	if err != nil {
		return p, err
	}
	grown := float64(heapAlloc()) - float64(heapBefore)
	if grown < 1 {
		grown = 1 // a tiny point can be swallowed by GC noise; avoid /0
	}
	p.bytesPerPeer = grown / float64(n)
	p.peersPerGB = float64(1<<30) / p.bytesPerPeer

	// Two full HELLO rounds over the complete population: every peer pings
	// its neighbors, watchdogs re-arm, t-peers sync sizes and refresh
	// fingers. This is the steady-state maintenance workload.
	sys.Settle(2 * cfg.HelloEvery)

	// A store+lookup batch exercises the data path end to end.
	items := o.Items
	if items > n {
		items = n
	}
	lookups := o.Lookups
	keys := make([]string, items)
	for i := range keys {
		keys[i] = fmt.Sprintf("scale-%07d", i)
	}
	sc := &scenario{Sys: sys, Eng: eng, Net: net, Topo: topo, Peers: peers, wallStart: start}
	if err := sc.storeItems(keys); err != nil {
		return p, err
	}
	results, err := sc.lookups(lookups, 0, keys, sc.anyLive, func(i int) int { return i * 7 })
	if err != nil {
		return p, err
	}
	p.lookups = len(results)
	for _, r := range results {
		if r.OK {
			p.lookupsOK++
		}
	}

	p.tPeers = len(sys.TPeers())
	p.sPeers = len(sys.SPeers())
	p.events = eng.Dispatched()
	p.simSeconds = float64(eng.Now()) / float64(sim.Second)
	p.wall = time.Since(start)
	if s := p.wall.Seconds(); s > 0 {
		p.eventsPerSec = float64(p.events) / s
	}
	return p, nil
}

// heapAlloc returns the live heap after a forced collection.
func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
