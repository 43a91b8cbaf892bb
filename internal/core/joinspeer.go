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
// last slot and later ones walk on.
func (p *Peer) handleSJoinReq(m sJoinReq) {
	if m.Joiner.Addr == p.Addr || m.Hops > routeHopLimit {
		// A rejoin walk that reaches the joiner itself descended through a
		// stale child edge into the joiner's own subtree; accepting would
		// make the peer its own ancestor. Dropping the walk is safe — the
		// rejoin retry goes through the server.
		return
	}
	if p.acceptChild() {
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
		if !m.Rejoin {
			p.send(p.sys.serverAddr, sRegister{TPeer: root})
		}
		return
	}
	// Degree (or link usage) exhausted: pass the request down a random
	// branch — but never into the joiner itself (a rejoining subtree root
	// may still be listed as a stale child somewhere; descending through it
	// would attach the root beneath its own subtree).
	eligible := len(p.children)
	if p.childIndex(m.Joiner.Addr) >= 0 {
		eligible--
	}
	if eligible == 0 {
		// δ < 2 would make trees impossible; Validate prevents it, so a
		// full peer always has a live branch unless the only one is the
		// joiner — then the walk dies and the rejoin retry covers it.
		return
	}
	// Draw among the eligible children (same address order, same draw as
	// the old filtered-copy code) and step to the picked one.
	pick := p.sys.rt.Rand().Intn(eligible)
	var next Ref
	for i := range p.children {
		if p.children[i].Ref.Addr == m.Joiner.Addr {
			continue
		}
		if pick == 0 {
			next = p.children[i].Ref
			break
		}
		pick--
	}
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
// of the s-peer is the same as its neighbor").
func (p *Peer) handleSJoinAck(from runtime.Addr, m sJoinAck) {
	if m.Epoch != int(p.joinEpoch) {
		return // handshake of an abandoned join attempt
	}
	if p.cp.Valid() {
		return // duplicate ack from a retried join
	}
	if m.CP.Addr == p.Addr {
		return // self-offer from a forked walk; wait for a real parent
	}
	p.dropTRole()
	p.ID = m.ID
	p.cp = m.CP
	p.tpeer = m.TPeer
	p.segLo = m.ID // refined by HELLO piggyback and lookups
	p.watch(m.CP.Addr)
	p.sys.stats.SJoins++
	p.completeJoin(m.Hops)
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
	if p.tpeer.Valid() {
		p.send(p.sys.serverAddr, sUnregister{TPeer: p.tpeer})
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
	p.send(p.tpeer.Addr, sJoinReq{Joiner: Ref{Addr: p.Addr}, Rejoin: true, Epoch: int(p.joinEpoch), Hops: 1})
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
