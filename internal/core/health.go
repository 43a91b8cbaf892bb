package core

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/runtime"
)

// This file is the scored reading of the audit (audit.go). The Check*
// methods turn violations into an error, which is the right answer at
// quiescence and useless while churn is in flight, when violations are
// expected and the question is "how many, and are they trending to zero".
// HealthScore counts them instead, and HealthSampler publishes the counts as
// registry gauges on a runtime.Ticker so /metrics and /healthz track repair
// convergence live during a crash wave. Nothing here checks anything itself.

// HealthScore is one audit pass taken at a moment that may be mid-repair:
// the live membership and, per invariant and under its name in the audit
// table, the number of violations. Only the rows cheap enough for a sampler
// tick are evaluated; full-view rows stay zero on a partial view.
type HealthScore struct {
	At runtime.Time `json:"t_us"`

	LivePeers    int `json:"live_peers"`
	LiveTPeers   int `json:"live_tpeers"`
	LiveSPeers   int `json:"live_speers"`
	TreeDepthMax int `json:"stree_depth_max"` // as far as the local table follows the chains
	// SuspectedPtrs counts neighbors whose watchdog expired and whose repair
	// has not landed; ReplicaDeficit sums how many of the k−1 successor
	// copies each owner's last tracked push failed to confirm. Both are
	// normal under churn and drain to zero at quiescence.
	SuspectedPtrs  int `json:"suspected_ptrs"`
	ReplicaDeficit int `json:"replica_deficit"`

	// The structural invariants: any nonzero count fails Healthy.
	DeadRingPtrs     int `json:"dead_ring_ptrs"`
	BrokenRingLinks  int `json:"broken_ring_links"`
	OrphanSPeers     int `json:"orphan_speers"`
	UnlistedChildren int `json:"unlisted_children"`
	RootMismatches   int `json:"root_mismatches"`
	DeltaViolations  int `json:"delta_violations"`
	UnownedItems     int `json:"unowned_items"`
	// StuckOps is expected under load: operations in flight.
	StuckOps int `json:"stuck_ops"`

	// Violations lists the first maxReported of those counted above, in
	// table order: which invariant, at which address.
	Violations []Violation `json:"violations,omitempty"`
}

// Healthy reports the sampler's verdict: no violation of a structural
// invariant. Suspected pointers, in-flight ops and a replica deficit are
// legitimate transients of a system under load and do not count.
func (h HealthScore) Healthy() bool {
	for i := range invariants {
		if inv := &invariants[i]; inv.structural && *inv.count(&h) != 0 {
			return false
		}
	}
	return true
}

// HealthScore computes one scored pass. Like every reading of the audit it
// is read-only and must run under the runtime's execution guarantee (inside
// a handler, a timer callback, or Runtime.Do), so sampling cannot change
// behavior.
func (s *System) HealthScore() HealthScore {
	v := newView(s)
	c := v.census()
	h := HealthScore{
		At:        s.rt.Now(),
		LivePeers: len(v.live), LiveTPeers: len(v.tps), LiveSPeers: len(v.sps),
		TreeDepthMax: c.depthMax, SuspectedPtrs: c.suspected, ReplicaDeficit: c.deficit,
	}
	for i := range invariants {
		if inv := &invariants[i]; inv.count != nil {
			*inv.count(&h) = v.run(inv)
		}
	}
	h.Violations = v.out[:min(len(v.out), maxReported)]
	return h
}

// HealthSampler periodically scores the system's invariants and publishes
// the counts as "health.*" registry gauges. It works identically under the
// DES and live runtimes because it runs off a runtime.Ticker: each sample
// executes under the execution guarantee, read-only, so continuous sampling
// during a churn wave observes repair without perturbing it.
type HealthSampler struct {
	sys    *System
	reg    *obs.Registry
	ticker *runtime.Ticker

	// mu guards last/seen: Last is read from outside the execution guarantee
	// (the introspection server's HTTP goroutines).
	mu   sync.Mutex
	last HealthScore
	seen bool
}

// NewHealthSampler creates a sampler publishing into reg every period. Start,
// Stop and Sample must run under the runtime's execution guarantee (e.g.
// inside Runtime.Do).
func NewHealthSampler(sys *System, reg *obs.Registry, period runtime.Time) *HealthSampler {
	hs := &HealthSampler{sys: sys, reg: reg}
	hs.ticker = runtime.NewTicker(sys.rt, period, func() { hs.Sample() })
	return hs
}

// Start takes an immediate baseline sample and begins periodic sampling.
func (hs *HealthSampler) Start() {
	hs.Sample()
	hs.ticker.Start()
}

// Stop halts sampling.
func (hs *HealthSampler) Stop() { hs.ticker.Stop() }

// Sample scores the system and publishes the one name→value table of gauges:
// a "health." gauge per counted invariant, the membership figures, and the
// cumulative replication counters of SystemStats, so a /metrics scrape can
// watch repair traffic (full pushes against deltas and digests, how often
// anti-entropy found divergence) without protocol access.
func (hs *HealthSampler) Sample() HealthScore {
	h, st := hs.sys.HealthScore(), &hs.sys.stats
	gauges := map[string]float64{
		"health.healthy":                 0,
		"health.live_peers":              float64(h.LivePeers),
		"health.live_tpeers":             float64(h.LiveTPeers),
		"health.live_speers":             float64(h.LiveSPeers),
		"health.stree_depth_max":         float64(h.TreeDepthMax),
		"health.suspected_ptrs":          float64(h.SuspectedPtrs),
		"health.replica_deficit":         float64(h.ReplicaDeficit),
		"core.replicas_pushed":           float64(st.ReplicasPushed),
		"core.replica_serves":            float64(st.ReplicaServes),
		"core.read_repairs":              float64(st.ReadRepairs),
		"core.replica_promotions":        float64(st.ReplicaPromotions),
		"core.replica_full_pushes":       float64(st.ReplicaFullPushes),
		"core.replica_digests":           float64(st.ReplicaDigests),
		"core.replica_digest_mismatches": float64(st.DigestMismatches),
	}
	if h.Healthy() {
		gauges["health.healthy"] = 1
	}
	for i := range invariants {
		if inv := &invariants[i]; inv.count != nil {
			gauges["health."+inv.name] = float64(*inv.count(&h))
		}
	}
	for name, v := range gauges {
		hs.reg.Gauge(name).Set(v)
	}
	hs.reg.Counter("health.samples").Inc()
	hs.mu.Lock()
	hs.last, hs.seen = h, true
	hs.mu.Unlock()
	return h
}

// Last returns the most recent score (false if no sample has run yet). Safe
// to call from any goroutine.
func (hs *HealthSampler) Last() (HealthScore, bool) {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hs.last, hs.seen
}
