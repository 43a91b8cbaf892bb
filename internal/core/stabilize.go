package core

// Ring stabilization: a Chord-style safety net for the t-network. The
// eager join/leave triangles of §3.3 keep the ring consistent on their own
// when every participant survives the handshake, but under heavy churn a
// triangle's counterparty can crash mid-protocol and leave a joiner
// half-inserted: its own pointers are right, yet nobody points back at it.
// The t-network therefore runs the classic stabilize/notify pair
// (piggybacked on the finger-refresh tick) that the paper inherits from
// Chord ("the t-network ... organizes peers into a ring similar to a chord
// ring"): ask the successor for its predecessor, adopt a closer successor if
// one appeared, and notify the successor so it can adopt us as predecessor.

import (
	"repro/internal/idspace"
	"repro/internal/runtime"
)

type (
	// ringStabQ asks the successor for its current predecessor.
	ringStabQ struct{}
	// ringStabA is the answer; it also carries the answerer's successor so
	// the asker learns its successor's successor (a one-deep successor
	// list used as a routing fallback while a crashed successor awaits
	// repair).
	ringStabA struct{ Pred, Succ Ref }
	// ringNotify proposes the sender as the receiver's predecessor.
	ringNotify struct{ Cand Ref }
)

// stabilizeRing runs one stabilization round; it is invoked from the finger
// refresh ticker so it shares that cadence.
func (p *Peer) stabilizeRing(t *tState) {
	if p.joining || p.leaving {
		return
	}
	if !t.succ.Valid() || t.succ.Addr == p.Addr {
		return
	}
	p.send(t.succ.Addr, ringStabQ{})
}

// handleRingStabA adopts a closer successor if the current successor knows
// one, then notifies the (possibly new) successor.
func (p *Peer) handleRingStabA(from runtime.Addr, m ringStabA) {
	t := p.t
	if t == nil || p.joining || p.leaving {
		return
	}
	if from != t.succ.Addr {
		return // stale answer from a replaced successor
	}
	t.succ2 = m.Succ
	if m.Pred.Valid() && m.Pred.Addr != p.Addr &&
		idspace.StrictBetween(p.ID, m.Pred.ID, t.succ.ID) {
		t.succ = m.Pred
		p.watch(m.Pred.Addr)
		// Cascade: re-probe the adopted successor right away instead of
		// waiting a full tick, so a long dangling chain reconnects in one
		// round trip per hop rather than one tick per hop. Each adoption
		// strictly shrinks the successor arc, so the cascade terminates.
		p.send(t.succ.Addr, ringStabQ{})
	}
	if t.succ.Valid() && t.succ.Addr != p.Addr {
		p.send(t.succ.Addr, ringNotify{Cand: p.Ref()})
	}
}

// handleRingNotify adopts the candidate as predecessor when it sits between
// the current predecessor and us, handing over the slice of our segment it
// now owns — the same load transfer a triangle insertion performs.
func (p *Peer) handleRingNotify(m ringNotify) {
	t := p.t
	if t == nil || m.Cand.Addr == p.Addr {
		return
	}
	if t.pred.Valid() && t.pred.Addr != p.Addr &&
		!idspace.StrictBetween(t.pred.ID, m.Cand.ID, p.ID) {
		return
	}
	oldPred := t.pred
	if oldPred.Addr == m.Cand.Addr {
		return // already our predecessor
	}
	t.pred = m.Cand
	p.segLo = m.Cand.ID
	p.watch(m.Cand.Addr)
	lo := oldPred.ID
	if !oldPred.Valid() {
		lo = p.ID
	}
	p.handleLoadTransfer(p.Addr, loadTransferReq{
		Lo: lo, Hi: m.Cand.ID, Target: m.Cand, TTL: 1 << 20,
	})
}
