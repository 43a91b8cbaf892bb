package core

import (
	"slices"

	"repro/internal/runtime"
)

// handleSJoinReq walks a joining s-peer down the tree until it lands on a
// peer with spare degree (§3.2.2). The walk starts at the s-network's t-peer
// and picks a random branch at every full peer, so the resulting topology is
// a tree with maximum degree δ. FCFS concurrency falls out of the engine's
// run-to-completion event processing: the first request to arrive takes the
// last slot and later ones walk on. A joiner this peer already lists as its
// child (a duplicated request, or a rejoin that walked back to its parent)
// is acked again in place: walking it on would give it a second parent.
func (p *Peer) handleSJoinReq(m sJoinReq) {
	if m.Joiner.Addr == p.Addr || m.Hops > routeHopLimit {
		// A rejoin walk that reaches the joiner itself descended through a
		// stale child edge into the joiner's own subtree; accepting would
		// make the peer its own ancestor. Dropping the walk is safe — the
		// rejoin retry goes through the server.
		return
	}
	if p.childIndex(m.Joiner.Addr) >= 0 || p.acceptChild() {
		was := p.subtreeSize()
		joiner := Ref{ID: p.ID, Addr: m.Joiner.Addr}
		p.addChild(joiner)
		p.watch(joiner.Addr)
		root := p.tpeer
		if p.Role == TPeer {
			root = p.Ref()
		}
		p.send(m.Joiner.Addr, sJoinAck{
			CP:    p.Ref(),
			TPeer: root,
			ID:    p.ID,
			Epoch: m.Epoch,
			Hops:  m.Hops,
		})
		if p.subtreeSize() != was {
			p.reportSize(1)
		}
		return
	}
	// Degree (or link usage) exhausted: pass the request down a random
	// branch. A full peer has one: Validate keeps δ ≥ 2, and a peer with no
	// children accepts.
	next := p.children[p.sys.rt.Rand().Intn(len(p.children))].Ref
	m.Hops++
	p.send(next.Addr, m)
}

// maxLinkUsage is the link-usage threshold (degree / capacity) above which a
// connect point passes a join request on (§5.1).
const maxLinkUsage = 3

// acceptChild applies the degree constraint and, with link heterogeneity on,
// the link-usage gate from §5.1: a connect point only accepts when
// degree/capacity stays under the threshold.
func (p *Peer) acceptChild() bool {
	if p.Degree() >= p.sys.Cfg.Delta {
		return false
	}
	if p.sys.Cfg.Heterogeneity {
		usage := float64(p.Degree()+1) / p.Capacity
		if usage > maxLinkUsage {
			return len(p.children) == 0 // never strand the walk at a leaf
		}
	}
	return true
}

// handleSJoinAck finalizes an s-peer's membership: it records its connect
// point, its s-network's t-peer, and adopts the s-network's p_id ("the p_id
// of the s-peer is the same as its neighbor"). A peer that joins with a
// subtree (a rejoin) reports its size to the new connect point.
func (p *Peer) handleSJoinAck(m sJoinAck) {
	if m.CP.Addr == p.Addr {
		return // self-offer from a forked walk; wait for a real parent
	}
	if m.Epoch != int(p.joinEpoch) || p.cp.Valid() {
		// An abandoned attempt's ack, or a duplicate: the acceptor lists
		// this peer all the same. Release that edge once this peer is
		// attached elsewhere; before then the current attempt may land on
		// the same acceptor.
		if (p.cp.Valid() || p.t != nil) && m.CP.Addr != p.cp.Addr {
			p.send(m.CP.Addr, sLeaveMsg{})
		}
		return
	}
	p.dropTRole()
	p.ID = m.ID
	p.cp = m.CP
	p.tpeer = m.TPeer
	p.segLo = m.ID // refined by HELLO piggyback and lookups
	p.watch(m.CP.Addr)
	p.sys.stats.SJoins++
	p.completeJoin(m.Hops)
	if len(p.children) > 0 {
		p.reportSize(1)
	}
}

// leaveSPeer departs gracefully: neighbors are notified, the stored load is
// transferred to a neighbor, and children rejoin through the t-peer.
func (p *Peer) leaveSPeer() {
	p.leaving = true
	p.sys.stats.SLeaves++
	nbs := p.neighbors()
	for _, nb := range nbs {
		p.send(nb.Addr, sLeaveMsg{})
	}
	if p.data.len() > 0 && len(nbs) > 0 {
		// "The leaving s-peer should also choose a neighbor to transfer
		// the load to."
		target := nbs[p.sys.rt.Rand().Intn(len(nbs))]
		items := slices.Clone(p.data.all())
		p.sendData(target.Addr, len(items), itemsMsg{Items: items})
	}
	p.stop()
}

// handleSLeave reacts to a neighbor's graceful departure: parents drop the
// child; children whose connect point left rejoin through the t-peer.
func (p *Peer) handleSLeave(from runtime.Addr) {
	if p.removeChild(from) {
		p.unwatch(from)
		return
	}
	if p.Role == SPeer && p.cp.Addr == from {
		p.unwatch(from)
		p.rejoin()
	}
}

// rejoin re-attaches this s-peer (with its intact subtree) to its s-network
// after its connect point left or crashed: "the neighbor whose cp is the
// leaving peer should rejoin the s-network by sending a join request to the
// t-peer again."
func (p *Peer) rejoin() {
	p.cp = NilRef
	p.sys.stats.Rejoins++
	if !p.tpeer.Valid() {
		p.rejoinViaServer()
		return
	}
	p.send(p.tpeer.Addr, sJoinReq{Joiner: Ref{Addr: p.Addr}, Epoch: int(p.joinEpoch), Hops: 1})
	// If the t-peer is also gone the request vanishes; the watchdog on
	// nothing won't fire, so arm a retry through the server.
	addr := p.Addr
	p.sys.rt.Schedule(p.sys.Cfg.HelloTimeout, func() {
		pp := p.sys.peerAt(addr)
		if pp == nil || !pp.alive || pp.cp.Valid() || pp.Role != SPeer {
			return
		}
		pp.rejoinViaServer()
	})
}

// rejoinViaServer asks the server for a fresh s-network when the local
// t-peer is unreachable.
func (p *Peer) rejoinViaServer() {
	req := serverJoinReq{
		Capacity:  p.Capacity,
		ForceRole: int8(SPeer),
	}
	if p.sys.Cfg.Landmarks > 0 {
		req.Coord = p.sys.landmarkCoord(p.Host)
	}
	// Re-enter the join state machine: the completed-join guard must not
	// swallow the server's response, and the fresh ack must be accepted.
	// The retry timer covers a lost request or response.
	p.cp = NilRef
	p.joined = false
	if p.join == nil {
		p.join = new(pendingJoin)
	}
	p.join.start = p.sys.rt.Now()
	p.join.req = req
	p.armJoinTimer()
	p.send(p.sys.serverAddr, req)
}
