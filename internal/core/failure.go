package core

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/runtime"
)

// heartbeat is a member's hello tick. Its watchdogs are deadlines in nbrs,
// so a HELLO or ack only moves a number: no timer exists per neighbor.
// Each tick moves horizon one HelloEvery ahead and registers the deadlines
// that brings in with the system's expiry events (System.expiries), so a
// deadline gets an event only once its neighbor has been silent for longer
// than HelloTimeout − HelloEvery. Until the tick starts horizon is
// unbounded, and a watch registers its deadline itself.
type heartbeat struct {
	tick    runtime.Handle
	horizon runtime.Time
	onTick  func() // bound once
}

const unbounded = runtime.Time(math.MaxInt64)

// expiry is the one event at a µs where watchdog deadlines fall, shared by
// every peer that registered a deadline there: peers on one host that heard
// a crashed neighbor's last HELLO together expire in one event, in the
// order their deadlines were set.
type expiry struct {
	at    runtime.Time
	h     runtime.Handle
	peers []*Peer
}

// dueWatch is one deadline an expiry event runs.
type dueWatch struct {
	p   *Peer
	nb  runtime.Addr
	due runtime.Time
	seq uint32
}

// beat returns the peer's heartbeat, allocating it on first use.
func (p *Peer) beat() *heartbeat {
	if p.hb == nil {
		p.hb = &heartbeat{horizon: unbounded, onTick: p.helloTick}
	}
	return p.hb
}

// setDue puts entry i's deadline one HelloTimeout from now and returns it.
// seq numbers the deadlines system-wide in the order they are set, as the
// event engine numbered one timer per neighbor.
func (p *Peer) setDue(i int) runtime.Time {
	p.sys.watchSeq++
	nb := &p.nbrs[i]
	nb.due = p.sys.rt.Now() + p.sys.Cfg.HelloTimeout
	nb.seq = p.sys.watchSeq
	return nb.due
}

// startHello starts the hello tick once. The deadlines a pre-join watch
// registered past the first tick's horizon are withdrawn: the tick that
// brings them in registers them again, and a HELLO has likely moved them
// by then.
func (p *Peer) startHello() {
	hb := p.beat()
	if hb.horizon != unbounded {
		return
	}
	hb.horizon = p.sys.rt.Now() + p.sys.Cfg.HelloEvery
	hb.tick = p.sys.rt.Schedule(p.sys.Cfg.HelloEvery, hb.onTick)
	p.withdrawDeadlines()
}

// withdrawDeadlines takes the peer out of the expiry events of its watched
// deadlines past the horizon (all of them once the peer stopped).
func (p *Peer) withdrawDeadlines() {
	for i := range p.nbrs {
		if d := p.nbrs[i].due; d != 0 && (d > p.hb.horizon || !p.alive) {
			p.sys.withdraw(p, d)
		}
	}
}

// helloTick runs every HelloEvery. It first runs the expiry event of its µs
// (expireNow), then moves the horizon one period ahead and registers the
// deadlines that brings in before it schedules the next tick, so a deadline
// equal to that tick expires on its own event first. Then it sends the
// HELLOs. On the wall clock a late tick registers what fell due since the
// last horizon with no delay, as a late timer would have expired it.
func (p *Peer) helloTick() {
	if !p.alive {
		return
	}
	hb := p.hb
	p.sys.expireNow()
	from := hb.horizon
	hb.horizon = p.sys.rt.Now() + p.sys.Cfg.HelloEvery
	p.registerDeadlines(from)
	hb.tick = p.sys.rt.Schedule(p.sys.Cfg.HelloEvery, hb.onTick)
	p.broadcastHello()
}

// registerDeadlines registers the peer's watched deadlines after from and up
// to the horizon with their expiry events.
func (p *Peer) registerDeadlines(from runtime.Time) {
	for i := range p.nbrs {
		if d := p.nbrs[i].due; d > from && d <= p.hb.horizon {
			p.sys.register(p, d)
		}
	}
}

// register makes sure an expiry event at time at covers peer p.
func (s *System) register(p *Peer, at runtime.Time) {
	e := s.expiries[at]
	if e == nil {
		if s.expiries == nil {
			s.expiries = make(map[runtime.Time]*expiry)
		}
		e = &expiry{at: at}
		e.h = s.rt.Schedule(max(at-s.rt.Now(), 0), func() { s.fireExpiry(e) })
		s.expiries[at] = e
	} else if slices.Contains(e.peers, p) {
		return
	}
	e.peers = append(e.peers, p)
}

// withdraw takes p out of the expiry event at time at, cancelling the event
// once nobody is left in it.
func (s *System) withdraw(p *Peer, at runtime.Time) {
	e := s.expiries[at]
	if e == nil {
		return
	}
	if i := slices.Index(e.peers, p); i >= 0 {
		e.peers = slices.Delete(e.peers, i, i+1)
	}
	if len(e.peers) == 0 {
		s.rt.Unschedule(e.h)
		delete(s.expiries, at)
	}
}

// expireNow runs the expiry event of the current µs now if it is pending. A
// periodic tick whose period is shorter than HelloTimeout calls it first: a
// timer per neighbor, set a whole timeout before the deadline, fired before
// a tick scheduled one period before it, but the deadline's event may have
// been scheduled after the tick.
func (s *System) expireNow() {
	if e := s.expiries[s.rt.Now()]; e != nil {
		s.rt.Unschedule(e.h)
		s.fireExpiry(e)
	}
}

// fireExpiry expires the deadlines of every peer registered at e's µs:
// earliest first and, within one µs, in the order they were set. A deadline
// a HELLO or ack moved since, an unwatched one, or one an earlier expiry of
// the batch moved is skipped; if none is left the event expires nothing. A
// moved deadline still within its peer's horizon (before the peer's tick
// starts) is registered again.
func (s *System) fireExpiry(e *expiry) {
	delete(s.expiries, e.at)
	due := s.dueBuf[:0]
	for _, p := range e.peers {
		for i := range p.nbrs {
			if nb := &p.nbrs[i]; p.alive && nb.due != 0 && nb.due <= e.at {
				due = append(due, dueWatch{p: p, nb: nb.addr, due: nb.due, seq: nb.seq})
			}
		}
	}
	slices.SortFunc(due, func(a, b dueWatch) int {
		if a.due != b.due {
			return cmp.Compare(a.due, b.due)
		}
		return int(int32(a.seq - b.seq)) // wraps: one µs holds few deadlines
	})
	for _, w := range due {
		p := w.p
		i := p.nbrIndex(w.nb)
		if !p.alive || i < 0 || p.nbrs[i].due != w.due || p.nbrs[i].seq != w.seq {
			continue
		}
		p.nbrs[i].due = 0
		if s.watchdogExpired != nil {
			s.watchdogExpired(p, w.nb)
		}
		p.neighborTimeout(w.nb)
	}
	s.dueBuf = due[:0]
	for _, p := range e.peers {
		if p.alive {
			p.registerDeadlines(e.at)
		}
	}
}

// neighborTimeout runs when a monitored neighbor produced neither a HELLO
// nor an acknowledgment within the timeout: the neighbor is presumed
// crashed (§3.2.2) and recovery depends on who it was.
func (p *Peer) neighborTimeout(nb runtime.Addr) {
	if !p.alive {
		return
	}
	p.sys.stats.WatchdogExpiries++
	p.unwatch(nb)

	// A crashed child: drop it from the tree, its subtree with it. The
	// subtree re-attaches itself when the grandchildren's watchdogs fire,
	// and is counted again where it lands.
	if p.removeChild(nb) {
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

	if t := p.t; t != nil {
		// A ring neighbor went silent. Report it; the server patches an
		// empty-s-network crash directly and otherwise lets the dead
		// peer's s-network drive the replacement.
		var crashed Ref
		switch nb {
		case t.pred.Addr:
			crashed = t.pred
			// Clear the dead predecessor so ring stabilization can
			// adopt the next live candidate that notifies us. The
			// segment bound (segLo) is kept until a real predecessor
			// appears.
			t.pred = NilRef
			p.markSuspect(t, nb)
		case t.succ.Addr:
			crashed = t.succ
			// The successor pointer is kept because the pending repair
			// messages (ringRepair, conditional pointerUpdate) match on
			// the stale value — but routing must stop forwarding into
			// the crash. Mark it suspect so segment routing detours via
			// the successor's successor until the repair lands.
			p.markSuspect(t, nb)
		default:
			// The watchdog re-armed on a crashed neighbor that a repair
			// has since replaced: it monitors nobody and the suspicion
			// is obsolete.
			t.unsuspect(nb)
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
	t := p.t
	if t == nil {
		return
	}
	if t.succ.Addr == m.Crashed.Addr && m.Succ.Valid() && m.Succ.Addr != m.Crashed.Addr {
		t.succ = m.Succ
		if m.Succ.Addr != p.Addr {
			p.watch(m.Succ.Addr)
		}
	}
	if t.pred.Addr == m.Crashed.Addr && m.Pred.Valid() && m.Pred.Addr != m.Crashed.Addr {
		t.pred = m.Pred
		p.segLo = m.Pred.ID
		if m.Pred.Addr != p.Addr {
			p.watch(m.Pred.Addr)
		}
	}
	t.fingers.replace(m.Crashed.Addr, m.Succ)
}

// handleReplaceResp concludes the server's crash arbitration: the winner is
// promoted into the crashed t-peer's ring position, the losers rejoin the
// s-network under the winner.
func (p *Peer) handleReplaceResp(m replaceResp) {
	if p.Role != SPeer {
		return // stale: already promoted or re-homed
	}
	if m.Promote {
		t := p.takeTRole()
		oldAddr := p.tpeer
		p.ID = m.ID
		p.tpeer = p.Ref()
		p.cp = NilRef
		t.pred = m.Pred
		t.succ = m.Succ
		p.segLo = m.Pred.ID
		// Every empty slot, and every slot naming the crashed t-peer,
		// now names the successor.
		t.fingers.size()
		t.fingers.replace(runtime.None, m.Succ)
		t.fingers.replace(oldAddr.Addr, m.Succ)
		p.watch(m.Pred.Addr)
		p.watch(m.Succ.Addr)
		p.startFingerTicker(t)
		// Swap the dead address out of every finger table on the ring.
		if t.succ.Valid() && t.succ.Addr != p.Addr {
			p.send(t.succ.Addr, substituteMsg{Old: oldAddr, New: p.Ref(), Origin: p.Addr})
		}
		if p.sys.Cfg.TrackerMode {
			t.ensureIndex()
			p.announceItems(p.data.all())
		}
		p.reportSize(1) // the registry still counts this peer as an s-peer
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
