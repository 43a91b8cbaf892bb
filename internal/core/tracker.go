package core

import "repro/internal/idspace"

// Tracker-mode support (§5.5): each s-network behaves like a BitTorrent
// swarm whose tracker is the t-peer. Peers report stored items to the
// tracker; lookups go to the tracker, which answers with the holder, and the
// item is fetched directly — no flooding anywhere.

// ensureIndex allocates the tracker index.
func (t *tState) ensureIndex() {
	if t.index == nil {
		t.index = make(map[idspace.ID]Ref)
	}
}

// announceItems reports locally stored items to this s-network's tracker.
// T-peers index their own items directly.
func (p *Peer) announceItems(items []Item) {
	if t := p.t; t != nil {
		t.ensureIndex()
		for _, it := range items {
			t.index[it.DID] = p.Ref()
		}
		return
	}
	if !p.tpeer.Valid() {
		return
	}
	for _, it := range items {
		p.send(p.tpeer.Addr, indexAdd{DID: it.DID, Holder: p.Ref()})
	}
}

// handleIndexAdd records a holder for an item.
func (p *Peer) handleIndexAdd(m indexAdd) {
	t := p.t
	if t == nil {
		// A stale announcement to a demoted peer; re-point it.
		if p.tpeer.Valid() && p.tpeer.Addr != p.Addr {
			p.send(p.tpeer.Addr, m)
		}
		return
	}
	t.ensureIndex()
	t.index[m.DID] = m.Holder
}

// handleIndexRemove withdraws an index entry, but only if it still points at
// the withdrawing holder (a newer announcement wins).
func (p *Peer) handleIndexRemove(m indexRemove) {
	if p.t == nil {
		return
	}
	if cur, ok := p.t.index[m.DID]; ok && cur.Addr == m.Holder.Addr {
		delete(p.t.index, m.DID)
	}
}

// resolveFromIndex answers a tracker-mode lookup at the t-peer: consult the
// index and either dispatch a direct fetch to the holder or fail fast.
func (p *Peer) resolveFromIndex(m lookupReq) {
	if it, ok := p.findLocal(m.DID); ok {
		p.answer(m.Origin, m.QID, it, m.Hops+1)
		return
	}
	holder, ok := Ref{}, false
	if p.t != nil {
		holder, ok = p.t.index[m.DID]
	}
	if !ok {
		p.send(m.Origin.Addr, notFoundMsg{QID: m.QID, Hops: m.Hops + 1})
		return
	}
	p.send(holder.Addr, fetchReq{QID: m.QID, DID: m.DID, Origin: m.Origin, Hops: m.Hops + 1})
}

// handleFetch delivers the item directly to the requester ("the data item
// is delivered between the two peers directly").
func (p *Peer) handleFetch(m fetchReq) {
	p.sys.contact(m.Origin, m.QID)
	if it, ok := p.findLocal(m.DID); ok {
		p.answer(m.Origin, m.QID, it, m.Hops+1)
		return
	}
	// Stale index entry: the item moved or was lost with a crash.
	p.send(m.Origin.Addr, notFoundMsg{QID: m.QID, Hops: m.Hops + 1})
}
