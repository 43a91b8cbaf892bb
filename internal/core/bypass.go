package core

import (
	"repro/internal/idspace"
	"repro/internal/runtime"
)

// bypassTTL is the idle expiry of a bypass link.
const bypassTTL = 120 * runtime.Second

// bypassLink is a soft cross-s-network shortcut (§5.4), kept in an
// idleTable keyed by the remote peer's address: links expire when idle and
// using one refreshes it.
type bypassLink struct {
	peer  Ref
	segLo idspace.ID
}

// addBypass installs a bypass link to a peer of another s-network, obeying
// rule 1: the combined degree (tree plus bypass) must stay under δ. The
// remote side is told so the link is bidirectional.
func (p *Peer) addBypass(peer Ref, segLo idspace.ID) {
	p.installBypass(peer, segLo, true)
}

// installBypass performs the local bookkeeping; announce propagates the
// reverse half once.
func (p *Peer) installBypass(peer Ref, segLo idspace.ID, announce bool) {
	if peer.Addr == p.Addr {
		return
	}
	var links idleTable[runtime.Addr, bypassLink]
	if p.enh != nil {
		links = p.enh.bypass
	}
	_, known := links.peek(peer.Addr)
	if !known && p.Degree()+len(links) >= p.sys.Cfg.Delta {
		return // rule 1: no bypass link on a peer at the degree threshold
	}
	p.enhance().bypass.put(p.sys.rt, bypassTTL, peer.Addr, bypassLink{peer: peer, segLo: segLo})
	if !known && announce {
		p.send(peer.Addr, bypassAdd{Peer: p.Ref(), SegLo: p.segLo})
	}
}

// handleBypassAdd installs the reverse half of a link created by a remote
// peer.
func (p *Peer) handleBypassAdd(m bypassAdd) {
	p.installBypass(m.Peer, m.SegLo, false)
}

// bypassFor returns the far end of a live bypass link whose s-network
// segment covers the given id, refreshing its expiry ("transmitting a packet
// through the bypass link will refresh the attached timer"). Of several
// covering links the lowest address wins, for determinism.
func (p *Peer) bypassFor(id idspace.ID) (Ref, bool) {
	if p.enh == nil {
		return NilRef, false
	}
	best := NilRef
	for _, e := range p.enh.bypass {
		l := e.val
		if !idspace.Between(l.segLo, id, l.peer.ID) {
			continue
		}
		if !best.Valid() || l.peer.Addr < best.Addr {
			best = l.peer
		}
	}
	if !best.Valid() {
		return NilRef, false
	}
	p.enh.bypass.get(best.Addr) // a use: restarts the link's idle timer
	return best, true
}
