package core

import (
	"repro/internal/idspace"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// Lookup resolves a key (§3.4). The operation checks the local database,
// then floods the local s-network if the key belongs to it; otherwise the
// request climbs to the t-peer, rides the ring to the owning segment and is
// flooded (or tracker-resolved) there. done receives the outcome, including
// hop count, latency and the number of peers contacted.
func (p *Peer) Lookup(key string, done func(OpResult)) {
	p.LookupWithTTL(key, 0, done)
}

// LookupWithTTL is Lookup with an explicit flood radius; ttl <= 0 uses the
// configured default. The experiment harness sweeps TTL per lookup so one
// built system serves several TTL settings.
func (p *Peer) LookupWithTTL(key string, ttl int, done func(OpResult)) {
	o, qid := p.newOp("lookup", key, done)
	if ttl > 0 {
		o.ttl = ttl
	}
	if it, ok := p.findLocal(o.did); ok {
		p.finishOp(qid, OpResult{OK: true, Value: it.Value, Hops: 0, Holder: p.Ref()})
		return
	}
	if p.sys.Cfg.ReplicationK > 1 && p.Role == TPeer {
		// The authoritative copy answers spread items whose bytes live on an
		// s-peer below; a held replica answers when the owner's route is
		// suspected dead (with read-repair toward the segment's new owner).
		if it, ok := p.owned().get(o.did); ok {
			p.sys.stats.ReplicaServes++
			p.finishOp(qid, OpResult{OK: true, Value: it.Value, Hops: 0, Holder: p.Ref()})
			return
		}
		if it, ok := p.replicaFallback(o.did); ok {
			p.finishOp(qid, OpResult{OK: true, Value: it.Value, Hops: 0, Holder: p.Ref()})
			return
		}
	}
	if p.inLocalSegment(o.did) {
		p.lookupLocal(o, qid)
		return
	}
	p.lookupRemote(o, qid)
}

// lookupLocal searches the peer's own s-network.
func (p *Peer) lookupLocal(o *op, qid uint64) {
	if p.sys.Cfg.TrackerMode {
		// "A data lookup request is sent to the t-peer directly."
		if p.Role == TPeer {
			p.resolveFromIndex(lookupReq{QID: qid, DID: o.did, Origin: p.Ref(), TTL: o.ttl, Hops: 0})
			return
		}
		if p.tpeer.Valid() {
			p.send(p.tpeer.Addr, lookupReq{QID: qid, DID: o.did, Origin: p.Ref(), TTL: o.ttl, Hops: 1})
		}
		return
	}
	if p.numNeighbors() == 0 {
		// Nobody to flood to: the item cannot exist elsewhere locally.
		p.finishOp(qid, OpResult{OK: false})
		return
	}
	p.floodOut(qid, o.did, o.ttl, p.Ref())
}

// lookupRemote routes a lookup toward a different s-network, taking a
// bypass link when one covers the segment (§5.4). Per §3.1 — "the query
// message is first flooded within the same s-network; in the meanwhile, it
// is forwarded to other s-networks through the t-network" — the local
// s-network is searched in parallel, which lets spread or cached copies
// answer without a ring round-trip.
func (p *Peer) lookupRemote(o *op, qid uint64) {
	if !p.sys.Cfg.TrackerMode && p.numNeighbors() > 0 {
		o.localFlood = true
		p.floodOut(qid, o.did, o.ttl, p.Ref())
	}
	m := lookupReq{QID: qid, DID: o.did, Origin: p.Ref(), TTL: o.ttl, Hops: 1}
	if p.sys.Cfg.Bypass {
		if far, ok := p.bypassFor(o.did); ok {
			o.probes = 1
			p.sys.stats.BypassUses++
			p.sys.trace(obs.EvLookupForward, qid, p.Addr, far.Addr, 1, "bypass")
			p.send(far.Addr, m)
			return
		}
	}
	alpha := p.sys.Cfg.LookupAlpha
	if alpha > 1 {
		if n := p.sendRingProbes(o.did, m, alpha); n > 0 {
			o.probes = n
			return
		}
		// Nowhere to fan out (lone t-peer, detached s-peer): fall through to
		// the single-probe path so behavior matches α=1 exactly.
	}
	o.probes = 1
	p.sys.trace(obs.EvLookupForward, qid, p.Addr, runtime.None, 1, "ring")
	p.forwardTowardSegment(o.did, m, runtime.None)
}

// sendRingProbes fans a remote lookup out along up to max ring paths
// (α-parallel probes, Kademlia-style). A t-peer origin picks the candidate
// hops itself; an s-peer origin sends indexed copies up the tree and the
// first t-peer on the climb diverges them (lookupReq.Probe). Returns the
// number of probes actually sent.
func (p *Peer) sendRingProbes(id idspace.ID, m lookupReq, max int) int {
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
	t := p.t
	if t == nil {
		return 0 // not placed by the server yet
	}
	var buf [MaxLookupAlpha]Ref
	cands := p.nextHops(t, id, max, buf[:0])
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
func (p *Peer) forwardProbe(t *tState, m lookupReq, from runtime.Addr) {
	idx := int(m.Probe)
	m.Probe = 0
	var buf [MaxLookupAlpha]Ref
	cands := p.nextHops(t, m.DID, idx+1, buf[:0])
	if len(cands) == 0 {
		p.forwardTowardSegment(m.DID, m, from)
		return
	}
	if idx >= len(cands) {
		idx = len(cands) - 1
	}
	p.sys.trace(obs.EvLookupForward, m.QID, p.Addr, cands[idx].Addr, m.Hops, "probe")
	p.sys.stats.RingForwards++
	p.send(cands[idx].Addr, m)
}

// floodOut starts (or restarts) a flood of the local s-network from this
// peer: the query travels every tree edge away from the entry point, so
// each peer of the s-network receives it exactly once within the TTL.
func (p *Peer) floodOut(qid uint64, did idspace.ID, ttl int, origin Ref) {
	// One interface boxing for the whole fan-out instead of one per edge.
	var m any = floodReq{QID: qid, DID: did, Origin: origin, TTL: ttl, Hops: 1}
	p.forEachNeighbor(func(nb Ref) {
		p.sys.stats.FloodsSent++
		p.send(nb.Addr, m)
	})
}

// handleLookupReq advances a routed lookup one step: toward the owning
// segment while remote, into a flood (or tracker resolution) on arrival.
func (p *Peer) handleLookupReq(from runtime.Addr, m lookupReq) {
	if m.Hops > routeHopLimit {
		return // looping route; the op timer fails the lookup
	}
	p.sys.contact(m.Origin, m.QID)
	p.sys.trace(obs.EvLookupHop, m.QID, from, p.Addr, m.Hops, "route")
	p.maybeAck(from)
	if it, ok := p.findLocal(m.DID); ok {
		p.answer(m.Origin, m.QID, it, m.Hops+1)
		return
	}
	if !p.inLocalSegment(m.DID) {
		if it, ok := p.replicaFallback(m.DID); ok {
			// Forwarding would route into a suspected crash: serve the local
			// replica and let read-repair re-home the item.
			p.answer(m.Origin, m.QID, it, m.Hops+1)
			return
		}
		m.Hops++
		if t := p.t; m.Probe > 0 && t != nil {
			// α-divergence point: the first t-peer under an s-peer origin
			// spreads the indexed probes across distinct candidate hops.
			p.forwardProbe(t, m, from)
			return
		}
		p.forwardTowardSegment(m.DID, m, from)
		return
	}
	// The request reached the owning s-network.
	if p.sys.Cfg.ReplicationK > 1 && p.Role == TPeer {
		// The owner's authoritative copy covers spread items; a replica not
		// yet promoted after a takeover still answers (the sweep promotes it
		// on the next tick).
		if it, ok := p.owned().get(m.DID); ok {
			p.sys.stats.ReplicaServes++
			p.answer(m.Origin, m.QID, it, m.Hops+1)
			return
		}
		if e, ok := p.reps().get(m.DID); ok {
			p.sys.stats.ReplicaServes++
			p.answer(m.Origin, m.QID, e.it, m.Hops+1)
			return
		}
	}
	if p.sys.Cfg.TrackerMode {
		if p.Role == TPeer {
			p.resolveFromIndex(m)
		} else if p.tpeer.Valid() {
			m.Hops++
			p.send(p.tpeer.Addr, m)
		}
		return
	}
	// Flood away from where the request came from; for requests arriving
	// off-tree (ring hop or bypass link) every tree edge qualifies.
	targets := p.numNeighbors()
	if p.Role == SPeer && p.cp.Valid() && p.cp.Addr == from {
		targets--
	} else if p.childIndex(from) >= 0 {
		targets--
	}
	if targets == 0 {
		// Owning peer with no s-network and no local copy: definitive miss.
		p.send(m.Origin.Addr, notFoundMsg{QID: m.QID, Hops: m.Hops + 1})
		return
	}
	ttl := m.TTL
	if ttl <= 0 {
		ttl = p.sys.Cfg.TTL
	}
	var fm any = floodReq{QID: m.QID, DID: m.DID, Origin: m.Origin, TTL: ttl, Hops: m.Hops + 1}
	p.forEachNeighbor(func(nb Ref) {
		if nb.Addr != from {
			p.sys.stats.FloodsSent++
			p.send(nb.Addr, fm)
		}
	})
}

// handleFlood processes one hop of an s-network flood: check the database,
// answer on a hit, otherwise keep flooding away from the sender while TTL
// lasts. The tree topology guarantees each peer sees the query once, so no
// duplicate-suppression state is needed (§3.2.2).
func (p *Peer) handleFlood(from runtime.Addr, m floodReq) {
	p.sys.contact(m.Origin, m.QID)
	p.sys.trace(obs.EvLookupHop, m.QID, from, p.Addr, m.Hops, "flood")
	p.maybeAck(from)
	if it, ok := p.findLocal(m.DID); ok {
		// "The peer will stop flooding and send the data item to the
		// peer requesting the data item directly."
		p.answer(m.Origin, m.QID, it, m.Hops+1)
		return
	}
	if m.TTL <= 1 {
		return
	}
	m.TTL--
	m.Hops++
	var fwd any = m
	p.forEachNeighbor(func(nb Ref) {
		if nb.Addr != from {
			p.sys.stats.FloodsSent++
			p.send(nb.Addr, fwd)
		}
	})
}

// handleFound closes a successful lookup and creates a bypass link when the
// holder lives in a different s-network (§5.4, rule 3). With caching on, the
// requester keeps a surrogate copy, so its s-network's parallel local floods
// can answer the next request for the same item nearby.
func (p *Peer) handleFound(m foundMsg) {
	if p.sys.Cfg.Bypass && m.Holder.ID != p.ID {
		p.addBypass(m.Holder, m.HolderSegLo)
	}
	if p.sys.Cfg.Caching && m.Holder.Addr != p.Addr {
		p.handleCacheAdd(cacheAdd{Item: m.Item})
	}
	p.finishOp(m.QID, OpResult{OK: true, Value: m.Item.Value, Hops: m.Hops, Holder: m.Holder})
}

// handleNotFound fails a lookup fast on a definitive miss — unless probes
// are still outstanding (α>1: first success wins, so one probe's miss only
// decrements the count) or the lookup also flooded the local s-network in
// parallel (§3.1). The ring's miss says nothing about spread or cached
// copies nearby, so in that case the op concludes through foundMsg or its
// timer.
func (p *Peer) handleNotFound(m notFoundMsg) {
	if o, ok := p.sys.ops[m.QID]; ok && o.peer == p {
		if o.probes > 1 {
			o.probes--
			return
		}
		if o.localFlood {
			return
		}
	}
	p.finishOp(m.QID, OpResult{OK: false, Hops: m.Hops})
}
