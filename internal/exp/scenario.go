package exp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// expTopoConfig returns the paper-scale transit-stub generator configuration
// (or a compact one in quick mode).
func expTopoConfig(o Options) topology.Config {
	cfg := topology.DefaultConfig()
	if o.Quick {
		cfg.TransitDomains = 2
		cfg.TransitNodesPerDomain = 2
		cfg.StubDomainsPerTransit = 2
		cfg.StubNodesPerDomain = 12
	}
	return cfg
}

// topoCache shares generated graphs across sweep points and experiments.
// Graphs are immutable after generation and safe for concurrent routing, so
// every sweep point of an experiment reads the same one instead of
// regenerating ~1,000 nodes of topology per point. Each (config, seed) pair
// is generated exactly once per process.
var topoCache struct {
	mu sync.Mutex
	m  map[topoKey]*topoEntry
}

type topoKey struct {
	cfg  topology.Config
	seed int64
}

type topoEntry struct {
	once sync.Once
	g    *topology.Graph
	err  error
}

// topoCacheHits/topoCacheMisses count shared-topology cache outcomes across
// the process, surfaced per sweep point in the run manifest.
var topoCacheHits, topoCacheMisses atomic.Int64

// expTopology returns the shared transit-stub topology for the experiment
// scale and seed, its latency table built with it and shared by every sweep
// point that routes over the graph.
func expTopology(o Options, seed int64) (*topology.Graph, error) {
	cfg := expTopoConfig(o)
	key := topoKey{cfg: cfg, seed: seed}

	topoCache.mu.Lock()
	if topoCache.m == nil {
		topoCache.m = make(map[topoKey]*topoEntry)
	}
	e, ok := topoCache.m[key]
	if !ok {
		e = &topoEntry{}
		topoCache.m[key] = e
	}
	topoCache.mu.Unlock()

	generated := false
	e.once.Do(func() {
		generated = true
		topoCacheMisses.Add(1)
		e.g, e.err = topology.GenerateTransitStub(cfg, seed)
	})
	if !generated {
		topoCacheHits.Add(1)
	}
	return e.g, e.err
}

// topoSeed is the topology seed shared by every point of one experiment
// sweep. Points keep distinct engine seeds (protocol randomness differs per
// point) but route over the same physical network, exactly as the paper's
// evaluation holds the GT-ITM topology fixed while varying p_s.
func (o Options) topoSeed() int64 { return o.Seed }

// expConfig returns the core configuration shared by all experiments,
// tightened so that long sweeps spend little simulated time on maintenance
// and failed floods fail fast.
func expConfig(ps float64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Ps = ps
	cfg.Delta = 3 // "δ is equal to three in the simulations"
	cfg.TTL = 4
	cfg.HelloEvery = 5 * sim.Second
	cfg.HelloTimeout = 12 * sim.Second
	cfg.FingerRefreshEvery = 5 * sim.Second
	cfg.LookupTimeout = 5 * sim.Second
	cfg.JoinTimeout = 40 * sim.Second
	return cfg
}

// paperRoutingConfig is expConfig plus the successor-only data routing the
// paper's own simulation used.
func paperRoutingConfig(ps float64) core.Config { return SuccessorWalk(expConfig(ps)) }

// SuccessorWalk returns cfg routing the ring by successors only, as the
// paper's own simulation did (see core.RouteSuccessor), with the lookup
// timeout grown to cover linear ring traversals.
func SuccessorWalk(cfg core.Config) core.Config {
	cfg.Route = core.RouteSuccessor
	cfg.LookupTimeout = 180 * sim.Second
	return cfg
}

// scenario is one built hybrid system plus its population.
type scenario struct {
	Sys   *core.System
	Eng   *sim.Engine
	Net   *simnet.Network
	Topo  *topology.Graph
	Peers []*core.Peer
	Joins []core.JoinStats
	// Reg is the per-scenario metrics registry (lookup/store histograms);
	// nil unless Options.Hist is set.
	Reg *obs.Registry
	// wallStart is when the scenario build began; observe reports the
	// point's wall-clock cost relative to it.
	wallStart time.Time
}

// construct creates one hybrid system with nobody in it yet: engine, message
// layer (o.Faults armed), system, tracer and — with o.Hist — the histogram
// registry. seed drives the simulation engine only. topo is the physical
// network; nil means the experiment's shared graph (see topoSeed), so
// concurrent sweep points build over one immutable network. Between construct
// and populate a caller may still act on the empty system (hybridsim adds its
// partition window to the fault layer there).
func construct(o Options, topo *topology.Graph, ncfg simnet.Config, cfg core.Config, seed int64) (*scenario, error) {
	start := time.Now()
	if topo == nil {
		var err error
		if topo, err = expTopology(o, o.topoSeed()); err != nil {
			return nil, err
		}
	}
	eng := sim.New(seed)
	net := simnet.New(eng, topo, ncfg)
	if o.Faults != nil {
		net.SetFaults(simnet.NewFaults(*o.Faults))
	}
	sys, err := core.NewSystem(simnet.NewRuntime(eng, net), cfg, topo.StubNodes()[0])
	if err != nil {
		return nil, err
	}
	if o.Trace != nil {
		sys.SetTracer(o.Trace)
		net.SetTracer(o.Trace)
	}
	var reg *obs.Registry
	if o.Hist {
		reg = obs.NewRegistry()
		sys.SetMetrics(reg)
	}
	return &scenario{Sys: sys, Eng: eng, Net: net, Topo: topo, Reg: reg, wallStart: start}, nil
}

// populate joins n peers and lets the overlay settle for two HELLO periods.
func (s *scenario) populate(n int, capacities []float64) error {
	var err error
	s.Peers, s.Joins, err = s.Sys.BuildPopulation(core.PopulationOpts{
		N:          n,
		Capacities: capacities,
	})
	if err != nil {
		return err
	}
	s.Sys.Settle(2 * s.Sys.Cfg.HelloEvery)
	return nil
}

// buildScenario is the prelude of every experiment cell without a step of its
// own in between: construct over the shared topology, populate with o.N
// peers, store keys (none for a cell that only measures joins).
func buildScenario(o Options, cfg core.Config, seed int64, capacities []float64, keys []string) (*scenario, error) {
	sc, err := construct(o, nil, simnet.DefaultConfig(), cfg, seed)
	if err != nil {
		return nil, err
	}
	if err := sc.populate(o.N, capacities); err != nil {
		return nil, err
	}
	if err := sc.storeItems(keys); err != nil {
		return nil, err
	}
	return sc, nil
}

// observe records the scenario's snapshot in the run recorder as one labeled
// point. It is a no-op without a recorder, and it never writes to the result
// path.
func (s *scenario) observe(o Options, label string) {
	if o.Obs == nil {
		return
	}
	o.Obs.Point(label, time.Since(s.wallStart), s.snapshot())
}

// snapshot reads the scenario's engine, network and protocol counters, the
// items-per-peer distribution and (with Options.Hist) the system's own
// lookup/store histograms into one manifest point.
func (s *scenario) snapshot() map[string]float64 {
	reg := obs.NewRegistry()
	reg.Counter("sim.events").Add(int64(s.Eng.Dispatched()))
	reg.Gauge("sim.time_s").Set(float64(s.Eng.Now()) / float64(sim.Second))

	ns := s.Net.Stats()
	reg.Counter("net.sent").Add(int64(ns.MessagesSent))
	reg.Counter("net.delivered").Add(int64(ns.MessagesDelivered))
	reg.Counter("net.dropped").Add(int64(ns.MessagesDropped))
	reg.Counter("net.local_sent").Add(int64(ns.LocalSent))
	reg.Counter("net.bytes").Add(int64(ns.BytesSent))

	cs := s.Sys.Stats()
	reg.Counter("core.floods").Add(int64(cs.FloodsSent))
	reg.Counter("core.ring_forwards").Add(int64(cs.RingForwards))
	reg.Counter("core.bypass_uses").Add(int64(cs.BypassUses))
	reg.Counter("core.cache_hits").Add(int64(cs.CacheHits))
	reg.Gauge("core.peers").Set(float64(s.Sys.NumPeers()))

	items := reg.Histogram("peer.items")
	for _, n := range s.Sys.ItemsPerPeer() {
		items.Record(int64(n))
	}

	reg.Counter("exp.topo_cache_hits").Add(topoCacheHits.Load())
	reg.Counter("exp.topo_cache_misses").Add(topoCacheMisses.Load())

	return s.mergeHistSnapshot(reg.Snapshot())
}

// alivePeer returns the i-th peer if alive, else scans forward for a live
// one.
func (s *scenario) alivePeer(i int) *core.Peer {
	n := len(s.Peers)
	for k := 0; k < n; k++ {
		p := s.Peers[(i+k)%n]
		if p.Alive() {
			return p
		}
	}
	return nil
}

// batches issues count operations, at most 64 at a time so that their
// timeout waits overlap, and drains each batch before starting the next.
// issue starts operation i and must arrange for done to be called exactly
// once, when the operation completes (at once, if it starts none).
func (s *scenario) batches(count int, issue func(i int, done func()) error) error {
	const batch = 64
	for start := 0; start < count; start += batch {
		remaining := 0
		done := func() { remaining-- }
		for i := start; i < min(start+batch, count); i++ {
			remaining++
			if err := issue(i, done); err != nil {
				return err
			}
		}
		if err := s.drain(&remaining); err != nil {
			return err
		}
	}
	return nil
}

// storeItems injects keys from deterministically chosen origins. A store the
// protocol fails is not an error here: the lookups that miss the item report
// it.
func (s *scenario) storeItems(keys []string) error {
	return s.batches(len(keys), func(i int, done func()) error {
		p := s.anyLive(i)
		if p == nil {
			return fmt.Errorf("exp: no live peers to store from")
		}
		p.Store(keys[i], "value-of-"+keys[i], func(core.OpResult) { done() })
		return nil
	})
}

// anyLive is the origin chooser of every experiment but one: a uniformly
// drawn peer, or the next live one after it.
func (s *scenario) anyLive(int) *core.Peer {
	return s.alivePeer(s.Eng.Rand().Intn(len(s.Peers)))
}

// lookups issues count lookups, the i-th from origin(i) for key
// keys[pick(i)%len(keys)], and returns the results; the turn of an origin
// that has died is skipped. It refuses an empty key universe: a size option
// too small for the experiment's share of it is the caller's input, not a
// bug.
func (s *scenario) lookups(count, ttl int, keys []string, origin func(i int) *core.Peer, pick func(i int) int) ([]core.OpResult, error) {
	if len(keys) == 0 {
		return nil, errNoKeys
	}
	results := make([]core.OpResult, 0, count)
	err := s.batches(count, func(i int, done func()) error {
		p := origin(i)
		if p == nil {
			return fmt.Errorf("exp: no live peers to look up from")
		}
		if !p.Alive() {
			done()
			return nil
		}
		p.LookupWithTTL(keys[pick(i)%len(keys)], ttl, func(r core.OpResult) {
			results = append(results, r)
			done()
		})
		return nil
	})
	return results, err
}

// drain steps the engine until *remaining reaches zero.
func (s *scenario) drain(remaining *int) error {
	for steps := 0; *remaining > 0; steps++ {
		if steps > 50_000_000 {
			return fmt.Errorf("exp: batch did not drain within event budget")
		}
		if !s.Eng.Step() {
			return fmt.Errorf("exp: engine ran dry with %d operations pending", *remaining)
		}
	}
	return nil
}

// crashWave abruptly crashes the given fraction of live peers, chosen
// uniformly, without any load transfer.
func (s *scenario) crashWave(f float64) {
	var live []*core.Peer
	for _, p := range s.Peers {
		if p.Alive() {
			live = append(live, p)
		}
	}
	n := int(f * float64(len(live)))
	for _, idx := range s.Eng.Rand().Perm(len(live))[:n] {
		live[idx].Crash()
	}
}

// crashFraction is crashWave followed by the long settle the figures want:
// watchdogs fire, replacements settle and the ring re-stabilizes, because the
// paper's Fig. 5b measures the steady-state failure ratio caused by lost
// data, not the transient routing breakage right after the crash wave.
func (s *scenario) crashFraction(f float64) {
	s.crashWave(f)
	s.Sys.Settle(8*s.Sys.Cfg.HelloTimeout + 10*s.Sys.Cfg.FingerRefreshEvery)
}

// meanHops averages the hop counts of successful results.
func meanHops(rs []core.OpResult) float64 {
	total, n := 0.0, 0
	for _, r := range rs {
		if r.OK {
			total += float64(r.Hops)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// meanLatencyMs averages the latency (in simulated milliseconds) of
// successful results.
func meanLatencyMs(rs []core.OpResult) float64 {
	total, n := 0.0, 0
	for _, r := range rs {
		if r.OK {
			total += float64(r.Latency) / float64(sim.Millisecond)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// failureRatio is failed / total.
func failureRatio(rs []core.OpResult) float64 {
	if len(rs) == 0 {
		return 0
	}
	failed := 0
	for _, r := range rs {
		if !r.OK {
			failed++
		}
	}
	return float64(failed) / float64(len(rs))
}

// totalContacts sums the per-lookup contact counts (connum).
func totalContacts(rs []core.OpResult) int {
	total := 0
	for _, r := range rs {
		total += r.Contacts
	}
	return total
}
