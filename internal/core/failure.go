package core

import (
	"repro/internal/runtime"
)

// neighborTimeout fires when a monitored neighbor produced neither a HELLO
// nor an acknowledgment within the timeout: the neighbor is presumed
// crashed (§3.2.2) and recovery depends on who it was.
func (p *Peer) neighborTimeout(nb runtime.Addr) {
	if !p.alive {
		return
	}
	p.sys.stats.WatchdogExpiries++
	p.unwatch(nb)

	// A crashed child: drop it from the tree. Its own subtree re-attaches
	// itself when the grandchildren's watchdogs fire. The unregistration
	// covers the crashed peer only — the subtree stays counted because its
	// members stay in the s-network; any residual drift (a child that
	// crashed along with its parent, a grandchild that rejoined elsewhere)
	// is reconciled by the periodic absolute size sync (sSizeSync).
	if p.removeChild(nb) {
		root := p.tpeer
		if p.Role == TPeer {
			root = p.Ref()
		}
		if root.Valid() {
			p.send(p.sys.serverAddr, sUnregister{TPeer: root})
		}
		return
	}

	if p.Role == SPeer && p.cp.Addr == nb {
		if p.tpeer.Addr == nb {
			// Our connect point was the t-peer itself: compete to
			// replace it (§3.2.1).
			p.send(p.sys.serverAddr, replaceReq{Crashed: p.tpeer, Self: p.Ref()})
			p.armReplaceRetry(p.tpeer)
			return
		}
		// An interior tree peer crashed; rejoin through the t-peer.
		p.rejoin()
		return
	}

	if p.Role == TPeer {
		// A ring neighbor went silent. Report it; the server patches an
		// empty-s-network crash directly and otherwise lets the dead
		// peer's s-network drive the replacement.
		var crashed Ref
		switch nb {
		case p.pred.Addr:
			crashed = p.pred
			// Clear the dead predecessor so ring stabilization can
			// adopt the next live candidate that notifies us. The
			// segment bound (segLo) is kept until a real predecessor
			// appears.
			p.pred = NilRef
			p.markSuspect(nb)
		case p.succ.Addr:
			crashed = p.succ
			// The successor pointer is kept because the pending repair
			// messages (ringRepair, conditional pointerUpdate) match on
			// the stale value — but routing must stop forwarding into
			// the crash. Mark it suspect so segment routing detours via
			// the successor's successor until the repair lands.
			p.markSuspect(nb)
		default:
			// The watchdog re-armed on a crashed neighbor that a repair
			// has since replaced: it monitors nobody and the suspicion
			// is obsolete.
			p.unsuspect(nb)
			return
		}
		p.send(p.sys.serverAddr, ringDeadReq{Crashed: crashed, Self: p.Ref()})
		// Keep watching: if recovery stalls we report again.
		p.watch(nb)
	}
}

// armReplaceRetry re-sends the crash-arbitration request if no outcome
// arrived within one detection window: the server's replaceResp travels the
// same lossy network as everything else, and an s-peer whose response is lost
// would otherwise keep a dead connect point forever. Re-asking is safe — the
// server is idempotent and steers late reporters to the winner.
func (p *Peer) armReplaceRetry(crashed Ref) {
	addr := p.Addr
	p.sys.rt.Schedule(p.sys.Cfg.HelloTimeout, func() {
		pp := p.sys.peerAt(addr)
		if pp == nil || !pp.alive || pp.Role != SPeer || pp.cp.Addr != crashed.Addr {
			return // arbitration concluded: promoted, re-homed, or gone
		}
		if pp.watching(crashed.Addr) {
			// The connect point is back under active monitoring: the
			// report was a false alarm (its HELLOs were lost) and the
			// server steered us back under the same t-peer, so the cp
			// address matches `crashed` even though arbitration is over.
			// Without this check the retry and the steer-back
			// re-attachment chase each other every detection window,
			// forever.
			return
		}
		pp.send(p.sys.serverAddr, replaceReq{Crashed: crashed, Self: pp.Ref()})
		pp.armReplaceRetry(crashed)
	})
}

// handleRingRepair swaps whichever of this peer's ring pointers still names
// the crashed peer for the registry's current neighbor.
func (p *Peer) handleRingRepair(m ringRepair) {
	if p.Role != TPeer {
		return
	}
	if p.succ.Addr == m.Crashed.Addr && m.Succ.Valid() && m.Succ.Addr != m.Crashed.Addr {
		p.succ = m.Succ
		if m.Succ.Addr != p.Addr {
			p.watch(m.Succ.Addr)
		}
	}
	if p.pred.Addr == m.Crashed.Addr && m.Pred.Valid() && m.Pred.Addr != m.Crashed.Addr {
		p.pred = m.Pred
		p.segLo = m.Pred.ID
		if m.Pred.Addr != p.Addr {
			p.watch(m.Pred.Addr)
		}
	}
	p.fingers.replace(m.Crashed.Addr, m.Succ)
}

// handleReplaceResp concludes the server's crash arbitration: the winner is
// promoted into the crashed t-peer's ring position, the losers rejoin the
// s-network under the winner.
func (p *Peer) handleReplaceResp(m replaceResp) {
	if p.Role != SPeer {
		return // stale: already promoted or re-homed
	}
	if m.Promote {
		p.Role = TPeer
		oldAddr := p.tpeer
		p.ID = m.ID
		p.tpeer = p.Ref()
		p.cp = NilRef
		p.pred = m.Pred
		p.succ = m.Succ
		p.segLo = m.Pred.ID
		// Every empty slot, and every slot naming the crashed t-peer,
		// now names the successor.
		p.fingers.size()
		p.fingers.replace(runtime.None, m.Succ)
		p.fingers.replace(oldAddr.Addr, m.Succ)
		p.watch(m.Pred.Addr)
		p.watch(m.Succ.Addr)
		p.startFingerTicker()
		// Swap the dead address out of every finger table on the ring.
		if p.succ.Valid() && p.succ.Addr != p.Addr {
			p.send(p.succ.Addr, substituteMsg{Old: oldAddr, New: p.Ref(), Origin: p.Addr})
		}
		if p.sys.Cfg.TrackerMode {
			p.ensureIndex()
			p.announceItems(p.data.all())
		}
		return
	}
	// Lost the race: rejoin under the replacement.
	if !m.NewT.Valid() {
		p.rejoinViaServer()
		return
	}
	if p.cp.Valid() && p.cp.Addr == m.NewT.Addr {
		if p.watching(p.cp.Addr) {
			// Stale or duplicate arbitration response — typically the
			// server's false-alarm steer-back racing a re-attachment that
			// already completed. We hang off the target through a
			// monitored connect point; tearing it down to rejoin the same
			// tree would reopen the no-connect-point window for nothing.
			return
		}
	}
	p.tpeer = m.NewT
	p.ID = m.NewT.ID
	p.rejoin()
}
