package core

import (
	"repro/internal/idspace"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// segKey is everything inLocalSegment reads: the role and the id arc. The
// rehome sweep and the replication fold each keep the key they last ran
// under, and a key that has not moved lets them skip their scans.
type segKey struct {
	lo, hi idspace.ID
	role   Role
	whole  bool // a lone t-peer owns the whole space
}

func (p *Peer) segKey() segKey {
	if p.Role != TPeer {
		return segKey{lo: p.segLo, hi: p.ID, role: p.Role}
	}
	if pred := p.Predecessor(); pred.Valid() {
		return segKey{lo: pred.ID, hi: p.ID, role: TPeer}
	}
	return segKey{hi: p.ID, role: TPeer, whole: true}
}

// inLocalSegment reports whether an id belongs to this peer's s-network,
// using the segment bounds cached from join time and HELLO piggyback.
func (p *Peer) inLocalSegment(id idspace.ID) bool {
	k := p.segKey()
	return k.whole || idspace.Between(k.lo, id, k.hi)
}

// foreign reports the arc (lo, hi] of ids outside the key's segment; ok is
// false when the segment is the whole space and nothing is foreign.
func (k segKey) foreign() (lo, hi idspace.ID, ok bool) {
	if k.whole || k.lo == k.hi {
		return 0, 0, false
	}
	return k.hi, k.lo, true
}

// newOp registers an in-flight operation with a timeout. Records come from
// the system-wide free list and go back to it in finishOp.
func (p *Peer) newOp(kind, key string, done func(OpResult)) (*op, uint64) {
	qid := p.sys.newTag()
	o := p.sys.getOp()
	o.peer = p
	o.kind = kind
	o.key = key
	o.did = idspace.HashKey(key)
	o.start = p.sys.rt.Now()
	o.ttl = p.sys.Cfg.TTL
	o.done = done
	p.sys.ops[qid] = o
	o.timer = p.sys.rt.Schedule(p.sys.Cfg.LookupTimeout, func() {
		p.opTimeout(qid)
	})
	if kind == "lookup" {
		p.sys.trace(obs.EvLookupStart, qid, p.Addr, runtime.None, 0, key)
	}
	return o, qid
}

// finishOp completes an operation exactly once and reports the result.
func (p *Peer) finishOp(qid uint64, r OpResult) {
	o, ok := p.sys.ops[qid]
	if !ok || o.peer != p {
		return
	}
	delete(p.sys.ops, qid)
	p.sys.rt.Unschedule(o.timer)
	r.Key = o.key
	r.Latency = p.sys.rt.Now() - o.start
	r.Contacts = o.contacts
	if !r.OK {
		p.sys.trace(obs.EvLookupFail, qid, p.Addr, runtime.None, r.Hops, o.kind)
	}
	if p.sys.met != nil {
		p.sys.met.recordOp(o.kind, r)
	}
	done := o.done
	// Recycle before the callback runs: the timer is unscheduled and the
	// table entry is gone, so nothing references the record — and the
	// callback may synchronously issue the next operation, which then reuses
	// it immediately.
	p.sys.putOp(o)
	if done != nil {
		done(r)
	}
}

// opTimeout fails an operation whose timer expired. The handle is cleared
// first: the timer has fired, so finishOp has nothing to unschedule.
func (p *Peer) opTimeout(qid uint64) {
	o, ok := p.sys.ops[qid]
	if !ok || o.peer != p {
		return
	}
	o.timer = runtime.Handle{}
	p.finishOp(qid, OpResult{OK: false})
}

// Store inserts a (key, value) pair into the system (§3.4). If the key
// belongs to the local s-network it is stored in the peer's own database;
// otherwise it travels up the tree, along the t-network, and is placed in
// the owning s-network per the configured placement scheme. done may be nil.
func (p *Peer) Store(key, value string, done func(OpResult)) {
	o, qid := p.newOp("store", key, done)
	it := Item{Key: key, Value: value, DID: o.did}
	if p.inLocalSegment(it.DID) {
		p.storeLocal(it)
		if p.sys.Cfg.ReplicationK > 1 && p.Role == TPeer {
			p.ownedAdd(it)
			p.eagerReplicate(it)
		}
		p.finishOp(qid, OpResult{OK: true, Hops: 0, Holder: p.Ref()})
		return
	}
	p.forwardTowardSegment(it.DID, storeReq{Item: it, Origin: p.Ref(), Tag: qid, Hops: 1}, runtime.None)
}

// storeLocal inserts an item into the local database and, in tracker mode,
// announces it to the s-network's tracker.
func (p *Peer) storeLocal(it Item) {
	p.dataPut(it)
	if p.Role == SPeer && p.replicationOn() {
		r := p.rs()
		r.pending = append(r.pending, it.DID) // for the next ownerAnnounce
	}
	if p.sys.Cfg.TrackerMode {
		p.announceItems([]Item{it})
	}
}

// dataPut is the one write into the local database. It marks the put for
// the next rehome sweep and replication fold, the two scans of data that
// skip when nothing was put; a delete needs no mark, since taking an item
// out can neither make another one foreign nor leave one unfolded.
func (p *Peer) dataPut(it Item) {
	p.data.put(it)
	p.dataAdded = true
	if p.repl != nil {
		p.repl.foldDirty = true
	}
}

// forwardTowardSegment moves a segment-routed request one step: s-peers
// climb to their connect point, t-peers route along the ring via the
// configured Route (finger walk + suspect detour by default).
// Returns without sending when this peer already owns the segment (callers
// check ownership first).
func (p *Peer) forwardTowardSegment(id idspace.ID, msg any, from runtime.Addr) {
	if p.Role == SPeer {
		if p.cp.Valid() {
			p.send(p.cp.Addr, msg)
		}
		return
	}
	t := p.t
	if t == nil {
		return // not placed by the server yet
	}
	next := p.nextHop(t, id)
	if !next.Valid() || next.Addr == p.Addr {
		return // lone t-peer: nowhere to forward
	}
	p.sys.stats.RingForwards++
	p.send(next.Addr, msg)
}

// rehomeForeignItems re-routes stored items that this peer's s-network no
// longer owns. A peer ends up holding foreign items when the segment moves
// under its data: an s-peer re-attached into a different s-network after a
// crash keeps its database, a t-peer re-anchored by the server can shrink its
// arc. Such items are unreachable where they are — lookups route to the
// owning segment and flood there, never here — so they are forwarded like
// fresh insertions. Called whenever the root or segment bounds change, and
// on every hello tick as the backstop; each scan runs only when its set
// gained an entry or the segment moved since the last sweep, because
// otherwise the last sweep left nothing for it to find.
func (p *Peer) rehomeForeignItems() {
	key := p.segKey()
	segMoved := key != p.swept
	p.swept = key
	var moved []Item
	if p.dataAdded || segMoved {
		p.dataAdded = false
		if lo, hi, ok := key.foreign(); ok {
			moved = p.data.cut(lo, hi)
		}
	}
	p.rehome(p.sweepReplicas(moved, segMoved))
}

// rehome forwards items this peer has already let go of toward their owning
// segment, like fresh insertions. The batch is DID-sorted without repeats:
// the same item can surface from both the data scan and the replica sweep
// in one tick (owner and detour target suspected together), and the sweep
// merges it away, since a duplicate transfer would double-count rehomes and
// double-send the batch downstream.
func (p *Peer) rehome(moved []Item) {
	for _, it := range moved {
		p.sys.stats.ItemsRehomed++
		p.forwardTowardSegment(it.DID, storeReq{Item: it, Origin: p.Ref(), Hops: 1}, runtime.None)
	}
}

// handleStoreReq advances an insertion toward the owning segment and places
// the item once it arrives.
func (p *Peer) handleStoreReq(from runtime.Addr, m storeReq) {
	if m.Hops > routeHopLimit {
		return // looping route; the op timer fails the store
	}
	p.maybeAck(from)
	if !p.inLocalSegment(m.Item.DID) || p.Role == SPeer {
		m.Hops++
		p.forwardTowardSegment(m.Item.DID, m, from)
		return
	}
	// We are the owning t-peer: record the authoritative copy and replicate
	// before placement — under spread the bytes may land on an s-peer, but
	// the replica chain always starts here.
	if p.sys.Cfg.ReplicationK > 1 {
		p.ownedAdd(m.Item)
		p.eagerReplicate(m.Item)
	}
	// Place per the configured scheme.
	switch p.sys.Cfg.Placement {
	case PlaceAtTPeer:
		p.storeLocal(m.Item)
		p.send(m.Origin.Addr, storeAck{Tag: m.Tag, Holder: p.Ref(), HolderSegLo: p.segLo, Hops: m.Hops})
	case PlaceSpread:
		p.handleSpreadReq(spreadReq{Item: m.Item, Origin: m.Origin, Tag: m.Tag, Hops: m.Hops})
	}
}

// handleSpreadReq performs one step of the scheme-2 random spreading walk:
// the current peer picks uniformly among itself and its directly connected
// downstream peers; picking itself ends the walk.
func (p *Peer) handleSpreadReq(m spreadReq) {
	// Index len(p.children) stands for "keep it here". The child table is
	// address-sorted, so indexing it directly draws the same candidate the
	// old sorted-copy code did.
	pick := p.sys.rt.Rand().Intn(len(p.children) + 1)
	if pick == len(p.children) {
		p.storeLocal(m.Item)
		p.send(m.Origin.Addr, storeAck{Tag: m.Tag, Holder: p.Ref(), HolderSegLo: p.segLo, Hops: m.Hops})
		return
	}
	m.Hops++
	p.send(p.children[pick].Ref.Addr, m)
}

// handleStoreAck closes the store operation and creates a bypass link when
// the item landed in a different s-network (§5.4, rule 2).
func (p *Peer) handleStoreAck(m storeAck) {
	if p.sys.Cfg.Bypass && m.Holder.ID != p.ID {
		p.addBypass(m.Holder, m.HolderSegLo)
	}
	p.finishOp(m.Tag, OpResult{OK: true, Hops: m.Hops, Holder: m.Holder})
}
