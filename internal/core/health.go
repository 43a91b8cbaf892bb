package core

import (
	"sort"
	"sync"

	"repro/internal/idspace"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// This file is the online ring-health sampler: the invariant checker
// (invariants.go) re-run in a non-failing *scored* mode. CheckInvariants is a
// quiescence audit — it stops at the first violation and returns an error —
// which makes it useless while churn is in flight, when violations are
// expected and the interesting question is "how many, and are they trending
// to zero". HealthScore walks the same structures (ring pointers, s-trees,
// the δ bound, data ownership, pending-op tables) but counts violations
// instead of failing, and HealthSampler publishes the counts as registry
// gauges on a runtime.Ticker so /metrics and /healthz track repair
// convergence live during a crash wave.

// HealthScore is one non-failing pass over the system's invariants: counts
// of live membership and of every violation class the quiescence checker
// would report, taken at a moment that may be mid-repair.
type HealthScore struct {
	At runtime.Time `json:"t_us"`

	LivePeers  int `json:"live_peers"`
	LiveTPeers int `json:"live_tpeers"`
	LiveSPeers int `json:"live_speers"`

	// SuspectedPtrs counts routing-suspected neighbors across all live
	// peers: watchdogs have expired but repair has not landed. Nonzero is
	// normal during churn and must drain to zero at quiescence.
	SuspectedPtrs int `json:"suspected_ptrs"`
	// DeadRingPtrs counts succ/pred pointers of live t-peers that reference
	// a dead or departed peer.
	DeadRingPtrs int `json:"dead_ring_ptrs"`
	// BrokenRingLinks counts successor links whose far end does not point
	// back (succ.pred != self) — the ring asymmetry CheckRing fails on.
	BrokenRingLinks int `json:"broken_ring_links"`

	// TreeDepthMax is the deepest live s-peer's distance to its t-network
	// root; OrphanSPeers counts s-peers with no (or a dead) connect point.
	TreeDepthMax int `json:"stree_depth_max"`
	OrphanSPeers int `json:"orphan_speers"`
	// DeltaViolations counts peers over their degree bound: s-peers above δ,
	// t-peers above the 2δ inheritance bound.
	DeltaViolations int `json:"delta_violations"`

	// UnownedItems counts stored items living outside the s-network of the
	// t-peer whose ring segment covers them (rehoming not yet converged).
	UnownedItems int `json:"unowned_items"`
	// StuckOps counts in-flight client operations (excluding finger-refresh
	// probes, which keep a rolling window alive by design).
	StuckOps int `json:"stuck_ops"`
	// ReplicaDeficit sums the per-owner replica shortfall (ReplicationK > 1):
	// how many of the k−1 successor copies each local t-peer's last tracked
	// push failed to confirm. Nonzero is a normal churn transient — it does
	// not fail Healthy — and must drain to zero once re-replication
	// converges. Partial views sum their local t-peers only.
	ReplicaDeficit int `json:"replica_deficit"`
}

// Healthy reports the sampler's verdict: no structural violations. Suspected
// pointers and in-flight ops are excluded — both are legitimate transients of
// a system under load — so Healthy flips false only while ring pointers,
// trees, degree bounds or data placement are actually broken.
func (h HealthScore) Healthy() bool {
	return h.DeadRingPtrs == 0 && h.BrokenRingLinks == 0 &&
		h.OrphanSPeers == 0 && h.DeltaViolations == 0 && h.UnownedItems == 0
}

// HealthScore computes one scored invariant pass. It is strictly read-only
// and must run under the runtime's execution guarantee (inside a handler, a
// timer callback, or Runtime.Do); it never mutates protocol state, draws no
// randomness and sends no protocol messages, so sampling cannot change
// behavior. On a partial system the liveness of remote ring and tree
// pointers is read through the runtime's Attached, which on the socket
// runtime is a directory query to the bootstrap — transport traffic, not
// protocol traffic, and explicitly safe under the execution guarantee.
func (s *System) HealthScore() HealthScore {
	h := HealthScore{At: s.rt.Now()}

	tps := s.TPeers()
	h.LiveTPeers = len(tps)
	liveT := make(map[runtime.Addr]*Peer, len(tps))
	for _, p := range tps {
		liveT[p.Addr] = p
	}

	owner := func(sid idspace.ID) runtime.Addr {
		i := sort.Search(len(tps), func(i int) bool { return tps[i].ID >= sid })
		if i == len(tps) {
			i = 0
		}
		return tps[i].Addr
	}

	for _, p := range s.peers {
		if p == nil || !p.alive {
			continue
		}
		h.LivePeers++
		h.SuspectedPtrs += len(p.suspect)
		for _, o := range p.pending {
			if o.kind != "fixfinger" {
				h.StuckOps++
			}
		}

		// Data ownership (counted, not failed): same rule as
		// CheckDataOwnership, skipping mid-rejoin s-peers whose root is
		// unknown. A partial system cannot compute it at all — the owner
		// function needs the full t-peer ring, and this process holds only
		// its slice — so the count stays zero there rather than reporting
		// correctly-placed items as violations.
		if len(p.data) > 0 && len(tps) > 0 && !s.partial {
			root := p.Addr
			known := true
			if p.Role == SPeer {
				if !p.tpeer.Valid() {
					known = false
				} else {
					root = p.tpeer.Addr
				}
			}
			if known {
				for _, it := range p.data {
					if owner(p.itemSID(it)) != root {
						h.UnownedItems++
					}
				}
			}
		}

		if p.Role == TPeer {
			h.ReplicaDeficit += p.repDeficit
			if len(p.children) > 2*s.Cfg.Delta {
				h.DeltaViolations++
			}
			for _, r := range [2]Ref{p.succ, p.pred} {
				if !r.Valid() {
					h.DeadRingPtrs++
					continue
				}
				if t := s.peerAt(r.Addr); t != nil {
					if !t.alive || t.Role != TPeer {
						h.DeadRingPtrs++
					}
				} else if !s.partial || !s.rt.Attached(r.Addr) {
					// Not in the local table. On a full-view system that
					// means dead; on a partial one the peer may live in
					// another process, so ask the runtime, which consults
					// the cluster directory.
					h.DeadRingPtrs++
				}
			}
			if p.succ.Valid() {
				if next, ok := liveT[p.succ.Addr]; ok && next.pred.Addr != p.Addr {
					h.BrokenRingLinks++
				}
			}
			continue
		}

		// S-peer tree shape.
		h.LiveSPeers++
		if p.Degree() > s.Cfg.Delta {
			h.DeltaViolations++
		}
		parent := s.peerAt(p.cp.Addr)
		if parent != nil && !parent.alive {
			parent = nil
		}
		if !p.cp.Valid() || (parent == nil && (!s.partial || !s.rt.Attached(p.cp.Addr))) {
			h.OrphanSPeers++
			continue
		}
		if parent == nil {
			continue // remote connect point, alive per the directory; depth unknowable here
		}
		depth := 0
		cur := p
		for cur.Role == SPeer {
			next := s.peerAt(cur.cp.Addr)
			if next == nil || !next.alive {
				break // ancestry broken mid-walk; already counted at the orphan
			}
			cur = next
			depth++
			if depth > s.numPeers {
				break // cycle; CheckTrees reports it at quiescence
			}
		}
		if depth > h.TreeDepthMax {
			h.TreeDepthMax = depth
		}
	}
	return h
}

// healthGauges is the fixed set of registry gauges a sampler publishes.
type healthGauges struct {
	live, tpeers, speers   *obs.Gauge
	suspected, deadPtrs    *obs.Gauge
	brokenLinks, treeDepth *obs.Gauge
	deltaViol, unowned     *obs.Gauge
	orphans, stuckOps      *obs.Gauge
	repDeficit             *obs.Gauge
	healthy                *obs.Gauge
	samples                *obs.Counter
	// Cumulative replication-activity counters mirrored from SystemStats so
	// a /metrics scrape can watch repair traffic without protocol access.
	repPushed, repServes       *obs.Gauge
	readRepairs, repPromotions *obs.Gauge
	// Full pushes against digests and deltas: the full:delta ratio of the
	// replication maintenance, and how often anti-entropy found divergence.
	repFullPushes, repDigests, digestMismatches *obs.Gauge
}

func newHealthGauges(reg *obs.Registry) healthGauges {
	return healthGauges{
		live:        reg.Gauge("health.live_peers"),
		tpeers:      reg.Gauge("health.live_tpeers"),
		speers:      reg.Gauge("health.live_speers"),
		suspected:   reg.Gauge("health.suspected_ptrs"),
		deadPtrs:    reg.Gauge("health.dead_ring_ptrs"),
		brokenLinks: reg.Gauge("health.broken_ring_links"),
		treeDepth:   reg.Gauge("health.stree_depth_max"),
		deltaViol:   reg.Gauge("health.delta_violations"),
		unowned:     reg.Gauge("health.unowned_items"),
		orphans:     reg.Gauge("health.orphan_speers"),
		stuckOps:    reg.Gauge("health.stuck_ops"),
		repDeficit:  reg.Gauge("health.replica_deficit"),
		healthy:     reg.Gauge("health.healthy"),
		samples:     reg.Counter("health.samples"),

		repPushed:     reg.Gauge("core.replicas_pushed"),
		repServes:     reg.Gauge("core.replica_serves"),
		readRepairs:   reg.Gauge("core.read_repairs"),
		repPromotions: reg.Gauge("core.replica_promotions"),

		repFullPushes:    reg.Gauge("core.replica_full_pushes"),
		repDigests:       reg.Gauge("core.replica_digests"),
		digestMismatches: reg.Gauge("core.replica_digest_mismatches"),
	}
}

func (g *healthGauges) publish(h HealthScore) {
	g.live.Set(float64(h.LivePeers))
	g.tpeers.Set(float64(h.LiveTPeers))
	g.speers.Set(float64(h.LiveSPeers))
	g.suspected.Set(float64(h.SuspectedPtrs))
	g.deadPtrs.Set(float64(h.DeadRingPtrs))
	g.brokenLinks.Set(float64(h.BrokenRingLinks))
	g.treeDepth.Set(float64(h.TreeDepthMax))
	g.deltaViol.Set(float64(h.DeltaViolations))
	g.unowned.Set(float64(h.UnownedItems))
	g.orphans.Set(float64(h.OrphanSPeers))
	g.stuckOps.Set(float64(h.StuckOps))
	g.repDeficit.Set(float64(h.ReplicaDeficit))
	if h.Healthy() {
		g.healthy.Set(1)
	} else {
		g.healthy.Set(0)
	}
	g.samples.Inc()
}

// HealthSampler periodically scores the system's invariants and publishes
// the counts as "health.*" registry gauges. It works identically under the
// DES and live runtimes because it runs off a runtime.Ticker: each sample
// executes under the execution guarantee, read-only, so continuous sampling
// during a churn wave observes repair without perturbing it.
type HealthSampler struct {
	sys    *System
	gauges healthGauges
	ticker *runtime.Ticker

	// mu guards last/seen: Last is read from outside the execution guarantee
	// (the introspection server's HTTP goroutines).
	mu   sync.Mutex
	last HealthScore
	seen bool
}

// NewHealthSampler creates a sampler publishing into reg every period. Start
// must be called under the runtime's execution guarantee (e.g. inside
// Runtime.Do).
func NewHealthSampler(sys *System, reg *obs.Registry, period runtime.Time) *HealthSampler {
	hs := &HealthSampler{sys: sys, gauges: newHealthGauges(reg)}
	hs.ticker = runtime.NewTicker(sys.rt, period, hs.sample)
	return hs
}

// Start begins periodic sampling (first sample one period from now) after
// taking an immediate baseline sample. Must run under the execution
// guarantee.
func (hs *HealthSampler) Start() {
	hs.sample()
	hs.ticker.Start()
}

// Stop halts sampling. Must run under the execution guarantee.
func (hs *HealthSampler) Stop() { hs.ticker.Stop() }

// Sample takes one scored pass immediately and publishes it. Must run under
// the execution guarantee.
func (hs *HealthSampler) Sample() HealthScore {
	hs.sample()
	h, _ := hs.Last()
	return h
}

func (hs *HealthSampler) sample() {
	h := hs.sys.HealthScore()
	hs.gauges.publish(h)
	hs.gauges.repPushed.Set(float64(hs.sys.stats.ReplicasPushed))
	hs.gauges.repServes.Set(float64(hs.sys.stats.ReplicaServes))
	hs.gauges.readRepairs.Set(float64(hs.sys.stats.ReadRepairs))
	hs.gauges.repPromotions.Set(float64(hs.sys.stats.ReplicaPromotions))
	hs.gauges.repFullPushes.Set(float64(hs.sys.stats.ReplicaFullPushes))
	hs.gauges.repDigests.Set(float64(hs.sys.stats.ReplicaDigests))
	hs.gauges.digestMismatches.Set(float64(hs.sys.stats.DigestMismatches))
	hs.mu.Lock()
	hs.last = h
	hs.seen = true
	hs.mu.Unlock()
}

// Last returns the most recent score (false if no sample has run yet). Safe
// to call from any goroutine.
func (hs *HealthSampler) Last() (HealthScore, bool) {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hs.last, hs.seen
}

// Samples returns how many scored passes have been published.
func (hs *HealthSampler) Samples() int64 { return hs.gauges.samples.Value() }
