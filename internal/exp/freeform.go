package exp

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Freeform is one free-form simulation request: a protocol configuration
// plus the shape of the run around it. Where a registered experiment
// regenerates one of the paper's tables, a Freeform run answers "what happens
// if ...": it builds one system per p_s point through the same
// construct/populate steps the experiments use, stores, optionally crashes a
// fraction of the peers, looks up, and renders a protocol- and
// performance-level report per point.
type Freeform struct {
	// Cfg is the protocol every point runs, with Ps set to the point's p_s;
	// start it from FreeformConfig.
	Cfg            core.Config
	N              int
	Items, Lookups int
	Seed           int64
	// Ps lists the sweep points; each gets its own system and report. The
	// points run on a pool of Workers goroutines (0 = one per CPU) over one
	// shared topology, and the reports are byte-identical for any pool size.
	Ps      []float64
	Workers int

	Crash float64 // fraction of peers crashed before the lookup phase, [0, 1)
	Zipf  bool
	Hist  bool // append latency/hop percentile lines to each report

	// Faults arms the simnet fault layer when a rate or the jitter is
	// non-zero, or when PartEnd > 0 isolates the first half of the stub
	// hosts during [PartStart, PartEnd).
	Faults             simnet.FaultConfig
	PartStart, PartEnd sim.Time

	// Tracers, when set, holds one tracer per point, so concurrent points
	// never interleave in one ring. Obs, when set, receives one manifest
	// point per p_s. Neither changes a report.
	Tracers []*obs.Tracer
	Obs     *obs.Recorder
}

// FreeformConfig is the protocol a free-form run starts from: DefaultConfig
// with the 5 s lookup timeout cmd/hybridsim has always used.
func FreeformConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.LookupTimeout = 5 * sim.Second
	return cfg
}

// Validate refuses the parameter values a run cannot honour, the protocol
// knobs by core.Config.Validate on every point's config.
func (p Freeform) Validate() error {
	switch {
	case p.N < 1:
		return fmt.Errorf("need at least one peer, got n=%d", p.N)
	case len(p.Ps) == 0:
		return fmt.Errorf("no p_s point given")
	case p.Items < 0 || p.Lookups < 0:
		return fmt.Errorf("items and lookups must not be negative, got %d and %d", p.Items, p.Lookups)
	case p.Lookups > 0 && p.Items == 0:
		return fmt.Errorf("%d lookups need at least one stored item", p.Lookups)
	case !(p.Crash >= 0 && p.Crash < 1):
		return fmt.Errorf("crash fraction must be in [0, 1), got %g", p.Crash)
	case len(p.Tracers) != 0 && len(p.Tracers) != len(p.Ps):
		return fmt.Errorf("%d tracers for %d points", len(p.Tracers), len(p.Ps))
	}
	for _, ps := range p.Ps {
		if err := p.config(ps).Validate(); err != nil {
			return err
		}
	}
	return nil
}

// RunFreeform runs every p_s point of p and returns the reports in point
// order. On a failure the reports stop at the failing point, whose report
// holds what it had printed so far.
func RunFreeform(p Freeform) ([]string, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// One immutable graph for every point: a multi-point sweep pays for one
	// set of Dijkstra caches.
	topo, err := topology.GenerateTransitStub(topology.DefaultConfig(), p.Seed)
	if err != nil {
		return nil, err
	}
	o := Options{Workers: p.Workers, Obs: p.Obs, Hist: p.Hist || p.Obs != nil}
	if f := p.Faults; f.DropRate > 0 || f.DupRate > 0 || f.JitterMax > 0 || p.PartEnd > 0 {
		o.Faults = &f
	}
	// A failing point is a result, not a sweep error: the others still run,
	// as they would have on their own.
	type pointOut struct {
		report string
		err    error
	}
	outs, _ := sweepPoints(o, p.Ps, func(i int, ps float64) (pointOut, error) {
		op := o
		if len(p.Tracers) > 0 {
			op.Trace = p.Tracers[i]
		}
		var b strings.Builder
		err := p.runPoint(&b, op, topo, ps)
		return pointOut{b.String(), err}, nil
	})
	reports := make([]string, 0, len(outs))
	for i, out := range outs {
		reports = append(reports, out.report)
		if out.err != nil {
			return reports, fmt.Errorf("ps=%.2f: %w", p.Ps[i], out.err)
		}
	}
	return reports, nil
}

// config is Cfg at one p_s point.
func (p Freeform) config(ps float64) core.Config {
	cfg := p.Cfg
	cfg.Ps = ps
	return cfg
}

// checkQuiesced verifies every system invariant at quiescence. Under armed
// faults some edge is always mid-repair (dropped HELLOs keep raising false
// crash alarms), so the check lifts the faults, lets the repairs converge,
// verifies, and re-arms the same layer (its counters keep accumulating).
func (s *scenario) checkQuiesced() error {
	f := s.Net.Faults()
	if f != nil {
		s.Net.SetFaults(nil)
		// Long enough for failure detection, repair, and one full
		// join-retry cycle for any peer wedged mid-rejoin.
		s.Sys.Settle(max(6*s.Sys.Cfg.HelloTimeout, 2*s.Sys.Cfg.JoinTimeout))
	}
	err := s.Sys.CheckInvariants()
	if f != nil {
		s.Net.SetFaults(f)
	}
	return err
}

// runPoint executes one full simulation and writes its report to w. It only
// touches its own engine and system, so points run concurrently over topo.
func (p Freeform) runPoint(w io.Writer, o Options, topo *topology.Graph, ps float64) error {
	cfg := p.config(ps)
	fmt.Fprintf(w, "building %d peers (ps=%.2f δ=%d ttl=%d placement=%s)...\n", p.N, ps, cfg.Delta, cfg.TTL, cfg.Placement)
	sc, err := construct(o, topo, simnet.DefaultConfig(), cfg, p.Seed)
	if err != nil {
		return err
	}
	if p.PartEnd > 0 {
		stubs := topo.StubNodes()
		sc.Net.Faults().AddPartition(p.PartStart, p.PartEnd, stubs[:len(stubs)/2])
	}
	var caps []float64
	if cfg.Heterogeneity {
		caps = workload.CapacityClasses(p.N)
	}
	if err := sc.populate(p.N, caps); err != nil {
		return err
	}
	// populate settled two HELLO periods; the free-form report has always
	// been taken 10 simulated seconds after the last join.
	sc.Sys.Settle(10*sim.Second - 2*sc.Sys.Cfg.HelloEvery)
	if err := sc.checkQuiesced(); err != nil {
		return err
	}
	sys, peers := sc.Sys, sc.Peers

	var joinHops metrics.Summary
	for _, js := range sc.Joins {
		joinHops.Add(float64(js.Hops))
	}
	fmt.Fprintf(w, "built: %d t-peers, %d s-peers; join hops %s\n",
		len(sys.TPeers()), len(sys.SPeers()), &joinHops)

	// Insert data.
	keys := workload.Keys(p.Items)
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
	fmt.Fprintf(w, "stored %d/%d items; total items in system: %d\n", stored, p.Items, sys.TotalItems())

	if p.Crash > 0 {
		before := sys.NumPeers()
		sc.crashWave(p.Crash)
		sys.Settle(3 * sys.Cfg.HelloTimeout)
		fmt.Fprintf(w, "crashed %d of %d peers; %d survive; promotions=%d rejoins=%d\n",
			before-sys.NumPeers(), before, sys.NumPeers(),
			sys.Stats().Promotions, sys.Stats().Rejoins)
		if err := sc.checkQuiesced(); err != nil {
			return fmt.Errorf("invariants after crash phase: %w", err)
		}
		fmt.Fprintf(w, "invariants: all hold after crash recovery\n")
	}

	// Lookups.
	var pick workload.Picker = &workload.UniformPicker{N: len(keys), Rng: sc.Eng.Rand()}
	if p.Zipf {
		zp, err := workload.NewZipfPicker(sc.Eng.Rand(), 1.2, 1, len(keys))
		if err != nil {
			return err
		}
		pick = zp
	}
	var hops, lat, contacts metrics.Summary
	fails := 0
	for i := 0; i < p.Lookups; i++ {
		origin := peers[(i*53)%len(peers)]
		if !origin.Alive() {
			origin = sys.Peers()[i%sys.NumPeers()]
		}
		r, err := sys.LookupSync(origin, keys[pick.Pick()])
		if err != nil {
			return err
		}
		if r.OK {
			hops.Add(float64(r.Hops))
			lat.Add(float64(r.Latency) / float64(sim.Millisecond))
		} else {
			fails++
		}
		contacts.Add(float64(r.Contacts))
	}
	failPct := 0.0
	if p.Lookups > 0 {
		failPct = 100 * float64(fails) / float64(p.Lookups)
	}
	fmt.Fprintf(w, "\nlookups: %d issued, %d failed (%.2f%%)\n", p.Lookups, fails, failPct)
	fmt.Fprintf(w, "  hops     %s\n", &hops)
	fmt.Fprintf(w, "  latency  %s ms\n", &lat)
	fmt.Fprintf(w, "  contacts %s (total connum %d)\n", &contacts, int64(contacts.Mean()*float64(contacts.N())))
	if p.Hist {
		hp := sc.histPoint()
		fmt.Fprintf(w, "  latency percentiles (ms): p50=%.3f p90=%.3f p99=%.3f p999=%.3f max=%.3f n=%d\n",
			hp.p50ms, hp.p90ms, hp.p99ms, hp.p999ms, hp.maxMs, hp.n)
		fmt.Fprintf(w, "  hop percentiles: p50=%.0f p90=%.0f p99=%.0f max=%.0f\n",
			hp.hopP50, hp.hopP90, hp.hopP99, hp.hopMax)
	}

	st := sys.Stats()
	if cfg.Caching {
		cached := 0
		for _, pr := range sys.Peers() {
			cached += pr.NumCached()
		}
		fmt.Fprintf(w, "caching: %d surrogate copies, %d pushes, %d cache hits\n",
			cached, st.CachePushes, st.CacheHits)
	}
	ns := sc.Net.Stats()
	fmt.Fprintf(w, "\nprotocol counters: %+v\n", st)
	fmt.Fprintf(w, "network: sent=%d delivered=%d dropped=%d bytes=%d\n",
		ns.MessagesSent, ns.MessagesDelivered, ns.MessagesDropped, ns.BytesSent)
	if f := sc.Net.Faults(); f != nil {
		fs := f.Stats()
		fmt.Fprintf(w, "faults injected: dropped=%d duplicated=%d jittered=%d partition_dropped=%d\n",
			fs.Dropped, fs.Duplicated, fs.Jittered, fs.PartitionDropped)
	}
	fmt.Fprintf(w, "simulated time: %v; events: %d\n", sc.Eng.Now(), sc.Eng.Dispatched())

	if o.Obs != nil {
		snap := sc.snapshot()
		snap["lookup.failed"] = float64(fails)
		o.Obs.Point(fmt.Sprintf("ps=%.2f", ps), time.Since(sc.wallStart), snap)
	}
	return nil
}
