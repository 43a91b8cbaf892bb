package core

import (
	"sort"

	"repro/internal/idspace"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// Lookup-path caching (Config.PathCache), the trick Kademlia gets from its
// iterative design ported onto the hybrid overlay's recursive routing: a
// successful remote lookup deposits a (DID -> holder) hint at the origin and
// at the origin's ring entry point, and later lookups for the same item
// shortcut straight at the holder instead of walking the ring. Hints live in
// an idleTable like the surrogate cache's copies (pathCacheTTL of idleness,
// refreshed on every use) and are invalidated three ways:
//
//   - the suspect/dead machinery: markSuspect drops every hint naming the
//     suspected address (dropHintsTo);
//   - a stale bounce: a hinted peer that no longer has the item replies
//     hintDrop to whoever used the hint and the request continues as a
//     normal routed lookup, so one stale hint costs one extra hop, never a
//     failure;
//   - a silent death: when a hinted lookup times out the origin drops its
//     own hint before failing (opTimeout).
//
// Hints store routes, never values, so an expired or deleted item cannot be
// resurrected through the path cache: the hinted holder simply misses and
// bounces.

// pathCacheTTL is the idle expiry of a path-cache hint.
const pathCacheTTL = 120 * runtime.Second

// routeHint deposits a lookup-path hint at the receiver: the origin of a
// successful remote lookup sends one to its t-peer so the whole s-network
// shares the shortcut on its next lookup.
type routeHint struct {
	DID    idspace.ID
	Holder Ref
}

// hintDrop tells the receiver its path-cache hint for DID is stale — the
// sender was probed off that hint and no longer holds the item.
type hintDrop struct {
	DID idspace.ID
}

// addHint records (or refreshes) a path-cache hint. Self-hints and invalid
// holders are ignored; a refresh also updates the holder, so read-repair
// moves hints to the item's new home.
func (p *Peer) addHint(did idspace.ID, holder Ref) {
	if !p.sys.Cfg.PathCache || !holder.Valid() || holder.Addr == p.Addr {
		return
	}
	p.hints.put(p.sys.rt, pathCacheTTL, did, holder)
}

// pathHint returns the cached holder for an item, refreshing the entry's
// idle timer. Hints naming a suspected-dead holder are dropped on sight —
// the watchdog may have marked the holder after the hint was deposited.
func (p *Peer) pathHint(did idspace.ID) (Ref, bool) {
	holder, ok := p.hints.peek(did)
	if !ok {
		return NilRef, false
	}
	if len(p.suspect) != 0 && p.suspect[holder.Addr] {
		p.hints.drop(did)
		return NilRef, false
	}
	return p.hints.get(did)
}

// dropHintsTo invalidates every hint naming an address, called when the
// suspect machinery marks it presumed-dead. The dids are deleted in sorted
// order so map iteration order cannot leak into the event sequence through
// timer unscheduling.
func (p *Peer) dropHintsTo(a runtime.Addr) {
	if len(p.hints) == 0 {
		return
	}
	var stale []idspace.ID
	for did, e := range p.hints {
		if e.val.Addr == a {
			stale = append(stale, did)
		}
	}
	if len(stale) > 1 {
		sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
	}
	for _, did := range stale {
		p.hints.drop(did)
	}
}

// NumHints reports the live path-cache hint count (tests, introspection).
func (p *Peer) NumHints() int { return len(p.hints) }

// handleRouteHint deposits a hint pushed along a successful reply path.
func (p *Peer) handleRouteHint(m routeHint) {
	p.addHint(m.DID, m.Holder)
}

// handleHintDrop invalidates a stale hint bounced back by its holder. Only
// the hinted holder itself may drop the hint, so a late bounce cannot clear
// a fresher hint pointing elsewhere.
func (p *Peer) handleHintDrop(from runtime.Addr, m hintDrop) {
	if holder, ok := p.hints.peek(m.DID); ok && holder.Addr == from {
		p.sys.stats.PathHintDrops++
		if p.sys.met != nil {
			p.sys.met.hintDrops.Inc()
		}
		p.hints.drop(m.DID)
	}
}

// sendRingProbes fans a remote lookup out along up to max ring paths
// (α-parallel probes, Kademlia-style). A t-peer origin picks the candidate
// hops itself; an s-peer origin sends indexed copies up the tree and the
// first t-peer on the climb diverges them (lookupReq.Probe). Returns the
// number of probes actually sent.
func (p *Peer) sendRingProbes(sid idspace.ID, m lookupReq, max int) int {
	if p.Role == SPeer {
		if !p.cp.Valid() {
			return 0
		}
		for i := 0; i < max; i++ {
			pm := m
			pm.Probe = uint8(i)
			p.send(p.cp.Addr, pm)
		}
		p.sys.stats.ProbesSent += uint64(max)
		if p.sys.met != nil {
			p.sys.met.probesSent.Add(int64(max))
		}
		return max
	}
	var buf [MaxLookupAlpha]Ref
	cands := p.sys.Cfg.Route.NextHops(p, sid, max, buf[:0])
	for _, c := range cands {
		p.sys.stats.RingForwards++
		p.sys.stats.ProbesSent++
		p.send(c.Addr, m)
	}
	if p.sys.met != nil {
		p.sys.met.probesSent.Add(int64(len(cands)))
	}
	return len(cands)
}

// forwardProbe routes one α-parallel probe at its divergence point: the
// first t-peer on the path picks the Probe-th best candidate hop (falling
// back to the best available) and clears the index, so from here the probe
// follows the normal best-hop walk.
func (p *Peer) forwardProbe(m lookupReq, from runtime.Addr) {
	idx := int(m.Probe)
	m.Probe = 0
	var buf [MaxLookupAlpha]Ref
	cands := p.sys.Cfg.Route.NextHops(p, m.SID, idx+1, buf[:0])
	if len(cands) == 0 {
		p.forwardTowardSegment(m.SID, m, from)
		return
	}
	if idx >= len(cands) {
		idx = len(cands) - 1
	}
	p.sys.trace(obs.EvLookupForward, m.QID, p.Addr, cands[idx].Addr, m.Hops, "probe")
	p.sys.stats.RingForwards++
	p.send(cands[idx].Addr, m)
}
