package core

import (
	"slices"

	"repro/internal/idspace"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// FingerBits is the finger table size (one entry per power of two of the
// 64-bit id space).
const FingerBits = 64

// routeHopLimit caps how many hops any ring- or tree-routed request may
// take. With consistent pointers a route needs O(log n) hops; while repairs
// are in flight the pointer graph can transiently contain cycles that would
// circulate a request forever (each hop is a fresh event, so one looping
// message livelocks a simulation run). Capped messages are dropped: every
// affected protocol has a timeout-driven retry or failure path.
const routeHopLimit = 512

// handleServerJoinResp reacts to the server's placement decision and starts
// the role-specific join protocol.
func (p *Peer) handleServerJoinResp(m serverJoinResp) {
	if p.joined {
		return // stale response: an earlier attempt already completed
	}
	p.joinEpoch++
	switch m.Role {
	case TPeer:
		p.Role = TPeer
		p.ID = m.ID
		p.tpeer = p.Ref()
		p.fingers.size()
		if m.First {
			self := p.Ref()
			p.pred, p.succ = self, self
			p.segLo = p.ID
			p.fingers.fill(self)
			p.send(p.sys.serverAddr, ringRegister{Self: self})
			p.sys.stats.TJoins++
			p.completeJoin(0)
			return
		}
		p.armJoinTimer()
		p.send(m.Entry.Addr, tJoinReq{Joiner: p.Ref(), Epoch: p.joinEpoch, Hops: 1})
	case SPeer:
		p.Role = SPeer
		p.armJoinTimer()
		p.send(m.Entry.Addr, sJoinReq{Joiner: Ref{Addr: p.Addr}, Epoch: p.joinEpoch, Hops: 1})
	}
}

// armJoinTimer retries the whole join through the server if the current
// attempt stalls (e.g. the entry point crashed mid-protocol, or any message
// of the handshake was lost). The retry resends the original request — role
// pin included — and re-arms itself, so a join survives losing any number of
// individual messages.
func (p *Peer) armJoinTimer() {
	p.sys.rt.Unschedule(p.joinTimer)
	p.joinTimer = p.sys.rt.Schedule(p.sys.Cfg.JoinTimeout, func() {
		if !p.alive || p.joined {
			return
		}
		if p.sys.Cfg.Landmarks > 0 {
			p.joinReq.Coord = p.sys.landmarkCoord(p.Host)
		}
		p.send(p.sys.serverAddr, p.joinReq)
		p.armJoinTimer()
	})
}

// --- join request routing -----------------------------------------------------

// handleTJoinReq routes a t-join along the ring until it reaches the
// predecessor-to-be, then runs the join triangle there.
func (p *Peer) handleTJoinReq(m tJoinReq) {
	if m.Hops > routeHopLimit {
		return // looping route; the joiner's timer retries the whole join
	}
	if p.Role != TPeer || !p.succ.Valid() {
		// Not a ring member (promotion in flight): bounce to our root.
		if p.tpeer.Valid() && p.tpeer.Addr != p.Addr {
			p.send(p.tpeer.Addr, m)
		}
		return
	}
	if idspace.Between(p.ID, m.Joiner.ID, p.succ.ID) || p.succ.Addr == p.Addr {
		p.startJoinTriangle(m)
		return
	}
	next := p.fingerStep(m.Joiner.ID)
	m.Hops++
	p.sys.stats.RingForwards++
	p.send(next.Addr, m)
}

// startJoinTriangle begins the §3.3 join triangle with this peer as pre.
// While the triangle is open the peer queues further join requests and
// refuses leave requests (its own included).
func (p *Peer) startJoinTriangle(m tJoinReq) {
	if p.joining || p.leaving {
		p.joinQueue = append(p.joinQueue, m)
		p.sys.stats.QueuedJoinRequests++
		return
	}
	p.joining = true
	p.triJoiner = m.Joiner.Addr
	p.triEpoch = m.Epoch
	p.armMutexGuard(p.sys.Cfg.HelloTimeout)
	setup := tJoinSetup{Pred: p.Ref(), Succ: p.succ, Epoch: m.Epoch, Hops: m.Hops}
	// pre.check: resolve id conflicts with the midpoint rule (Table 1).
	if m.Joiner.ID == p.ID || m.Joiner.ID == p.succ.ID {
		setup.NewID = idspace.Midpoint(p.ID, p.succ.ID)
		setup.HasNewID = true
		p.sys.stats.IDConflicts++
	}
	p.send(m.Joiner.Addr, setup)
}

// handleTJoinSetup is the joiner receiving its ring neighbors from pre.
func (p *Peer) handleTJoinSetup(from runtime.Addr, m tJoinSetup) {
	if m.Epoch != p.joinEpoch || p.Role != TPeer {
		// Handshake of an abandoned join attempt: this triangle can never
		// complete, so release pre's mutex right away.
		p.send(from, tJoinCancel{Joiner: Ref{ID: p.ID, Addr: p.Addr}, Epoch: m.Epoch})
		return
	}
	if p.joined && p.pred.Valid() {
		// Duplicate setup (e.g. pre re-ran a triangle it had queued, or the
		// network duplicated the message). While our own insertion is still
		// awaiting confirmation the triangle is live and will close through
		// tJoinDone; once it has closed, tell pre to release — its copy of
		// tJoinDone may have been lost.
		if !p.insertPending {
			p.send(from, tJoinCancel{Joiner: Ref{ID: p.ID, Addr: p.Addr}, Epoch: m.Epoch})
		}
		return
	}
	if m.HasNewID {
		p.ID = m.NewID
		p.tpeer = p.Ref()
	}
	p.pred = m.Pred
	p.succ = m.Succ
	p.segLo = m.Pred.ID
	p.fingers.fill(m.Succ)
	p.watch(m.Pred.Addr)
	if m.Succ.Addr != m.Pred.Addr {
		p.watch(m.Succ.Addr)
	}
	// Hold our own joining mutex until succ confirms the insertion, so any
	// triangle we anchor as pre cannot reach succ before our own did.
	p.joining = true
	p.insertPending = true
	p.armMutexGuard(p.sys.Cfg.JoinTimeout)
	p.send(m.Succ.Addr, tJoinToSucc{Joiner: p.Ref()})
	p.armInsertRetry(m.Succ, 0)
	p.send(p.sys.serverAddr, ringRegister{Self: p.Ref()})
	p.sys.stats.TJoins++
	p.completeJoin(m.Hops)
}

// armInsertRetry re-sends the joiner's second triangle edge until succ
// confirms it. The insertion only becomes visible to the ring through succ,
// so a lost tJoinToSucc leaves the joiner with correct pointers that nobody
// reciprocates — and the joiner's own failure detector would then raise
// false crash alarms on both neighbors before stabilization catches up.
// tJoinToSucc is idempotent at succ, so re-sending is safe.
func (p *Peer) armInsertRetry(succ Ref, attempt int) {
	if attempt >= 5 {
		return // give up; the stabilize/notify pair reconciles eventually
	}
	epoch := p.joinEpoch
	p.sys.rt.Schedule(p.sys.Cfg.HelloEvery, func() {
		if !p.alive || !p.insertPending || p.joinEpoch != epoch || p.succ.Addr != succ.Addr {
			return
		}
		p.send(succ.Addr, tJoinToSucc{Joiner: p.Ref()})
		p.armInsertRetry(succ, attempt+1)
	})
}

// armMutexGuard self-heals a joining mutex that a crashed counterparty would
// otherwise leave set forever. The duration depends on the role holding the
// mutex: a joiner keeps it through its armInsertRetry window (JoinTimeout
// covers that), but pre's triangle needs only a few message hops, so pre's
// guard is much shorter — a queue of triangles whose joiners crashed must
// not wedge pre for minutes, one JoinTimeout each.
func (p *Peer) armMutexGuard(d runtime.Time) {
	p.mutexEpoch++
	epoch := p.mutexEpoch
	p.sys.rt.Schedule(d, func() {
		if p.alive && p.joining && p.mutexEpoch == epoch {
			p.joining = false
			p.drainJoinQueue()
		}
	})
}

// handleTJoinToSucc is succ learning about the inserted joiner: it adopts the
// joiner as predecessor, triggers the load transfer and closes the triangle.
func (p *Peer) handleTJoinToSucc(m tJoinToSucc) {
	oldPred := p.pred
	p.pred = m.Joiner
	p.segLo = m.Joiner.ID
	p.watch(m.Joiner.Addr)
	if oldPred.Valid() && oldPred.Addr != m.Joiner.Addr &&
		oldPred.Addr != p.succ.Addr && oldPred.Addr != p.Addr {
		p.unwatch(oldPred.Addr)
	}
	// suc.loadtransfer(n.id): everything in (oldPred, joiner] now belongs
	// to the joiner; ask the whole s-network to ship matching items.
	lo := oldPred.ID
	if !oldPred.Valid() {
		lo = p.ID
	}
	p.handleLoadTransfer(p.Addr, loadTransferReq{
		Lo: lo, Hi: m.Joiner.ID, Target: m.Joiner, TTL: 1 << 20,
	})
	// Release the joiner's self-mutex and close the triangle at pre.
	p.send(m.Joiner.Addr, tJoinConfirm{})
	pre := oldPred
	if !pre.Valid() || pre.Addr == p.Addr {
		// Singleton or bootstrap ring: we are pre ourselves.
		p.handleTJoinDone(tJoinDone{Joiner: m.Joiner})
		return
	}
	p.send(pre.Addr, tJoinDone{Joiner: m.Joiner})
}

// handleTJoinDone is pre finishing the triangle: flip the successor pointer,
// then drain the queued join requests (FIFO, §3.3).
func (p *Peer) handleTJoinDone(m tJoinDone) {
	if m.Joiner.Addr == p.Addr {
		// A re-sent tJoinToSucc makes succ close the triangle toward its
		// current pred — the joiner itself. Adopting ourselves as successor
		// would detach us from the ring.
		return
	}
	// Pre may have released the triangle mutex already (cancel or guard)
	// and moved on, so only flip the successor when the joiner is still an
	// improvement: strictly between us and the current successor. A stale
	// done for a joiner that no longer belongs there must not detach the
	// successor pointer stabilization has since repaired.
	if !p.succ.Valid() || p.succ.Addr == p.Addr ||
		idspace.StrictBetween(p.ID, m.Joiner.ID, p.succ.ID) {
		oldSucc := p.succ
		p.succ = m.Joiner
		p.watch(m.Joiner.Addr)
		if oldSucc.Valid() && oldSucc.Addr != m.Joiner.Addr &&
			oldSucc.Addr != p.pred.Addr && oldSucc.Addr != p.Addr {
			p.unwatch(oldSucc.Addr)
		}
	}
	// Release the mutex only for the triangle actually being closed; a
	// stale done must not unlock a newer, still-open triangle.
	if p.joining && !p.insertPending && p.triJoiner == m.Joiner.Addr {
		p.joining = false
		p.drainJoinQueue()
	}
}

// handleTJoinCancel is pre learning its open triangle is dead: the joiner
// refused the setup (stale epoch or already inserted elsewhere). Release the
// mutex and move on to the queued requests instead of waiting out the mutex
// guard's full JoinTimeout.
func (p *Peer) handleTJoinCancel(m tJoinCancel) {
	if !p.joining || p.insertPending {
		return // not anchoring a triangle (the mutex is our own insertion's)
	}
	if p.triJoiner != m.Joiner.Addr || p.triEpoch != m.Epoch {
		return // cancel for an older triangle than the one now open
	}
	p.joining = false
	p.drainJoinQueue()
}

// drainJoinQueue processes the next queued join request, or honors a
// deferred leave once the queue is empty.
func (p *Peer) drainJoinQueue() {
	if p.joining {
		return
	}
	if len(p.joinQueue) > 0 {
		next := p.joinQueue[0]
		p.joinQueue = p.joinQueue[1:]
		// Re-route rather than assume we are still pre: the ring moved.
		p.handleTJoinReq(next)
		return
	}
	if p.deferLeave {
		p.deferLeave = false
		p.Leave()
	}
}

// handleLoadTransfer ships every local item in (Lo, Hi] to the target and
// propagates the request down the s-network tree.
func (p *Peer) handleLoadTransfer(from runtime.Addr, m loadTransferReq) {
	var moved []Item
	if m.Lo != m.Hi {
		moved = p.transferOwned(m, p.data.cut(m.Lo, m.Hi))
	}
	if len(moved) > 0 && m.Target.Addr != p.Addr {
		p.sendData(m.Target.Addr, len(moved), itemsMsg{Items: moved})
		if p.sys.Cfg.TrackerMode && p.tpeer.Valid() {
			for _, it := range moved {
				p.send(p.tpeer.Addr, indexRemove{DID: it.DID, Holder: p.Ref()})
			}
		}
	}
	if m.TTL <= 1 {
		return
	}
	m.TTL--
	var fwd any = m
	for i := range p.children {
		if a := p.children[i].Ref.Addr; a != from {
			p.send(a, fwd)
		}
	}
}

// handleItems stores delivered items locally (load transfer, load dump or
// spreading) and, in tracker mode, announces them to the tracker. A t-peer
// whose segment shrank while the items were in flight re-routes them to the
// current owner instead of keeping them — otherwise a load transfer racing a
// concurrent join could strand data at a stale owner.
func (p *Peer) handleItems(m itemsMsg) {
	kept := m.Items[:0:0]
	for _, it := range m.Items {
		if p.Role == TPeer && !p.inLocalSegment(it.DID) &&
			p.succ.Valid() && p.succ.Addr != p.Addr {
			p.forwardTowardSegment(it.DID, storeReq{Item: it, Origin: p.Ref(), Hops: 1}, runtime.None)
			continue
		}
		p.dataPut(it)
		p.ownedAdd(it)
		kept = append(kept, it)
	}
	if p.sys.Cfg.TrackerMode && len(kept) > 0 {
		p.announceItems(kept)
	}
}

// --- leave ---------------------------------------------------------------------

// Leave departs gracefully. T-peers with a non-empty s-network hand their
// role to a random s-peer (substitution); t-peers with an empty s-network
// run the leave triangle; s-peers notify neighbors and transfer load.
func (p *Peer) Leave() {
	if !p.alive || p.leaving {
		return
	}
	p.sys.trace(obs.EvPeerLeave, 0, p.Addr, runtime.None, 0, p.Role.String())
	if p.Role == SPeer {
		p.leaveSPeer()
		return
	}
	if p.joining || len(p.joinQueue) > 0 {
		// §3.3: process queued joins first, then leave.
		p.deferLeave = true
		return
	}
	p.leaving = true
	p.sys.stats.TLeaves++
	if len(p.children) > 0 {
		p.leaveBySubstitution()
		return
	}
	p.leaveEmpty()
}

// leaveBySubstitution promotes a random direct child to take over this
// t-peer's identity: ring position, fingers, data and remaining children.
// The total number and position of t-peers is unchanged, so no finger
// recomputation happens anywhere — other t-peers only swap an address.
func (p *Peer) leaveBySubstitution() {
	children := p.Children()
	pick := children[p.sys.rt.Rand().Intn(len(children))]
	newRef := Ref{ID: p.ID, Addr: pick.Addr}

	items := p.withOwned(slices.Clone(p.data.all()))
	rest := make([]Ref, 0, len(children)-1)
	for _, c := range children {
		if c.Addr != pick.Addr {
			rest = append(rest, c)
		}
	}
	pm := promoteMsg{
		ID:       p.ID,
		Pred:     p.pred,
		Succ:     p.succ,
		Fingers:  p.fingers.slots(),
		Items:    items,
		Children: rest,
	}
	if pm.Pred.Addr == p.Addr {
		pm.Pred = newRef // singleton ring hands itself over
	}
	if pm.Succ.Addr == p.Addr {
		pm.Succ = newRef
	}
	p.sendData(pick.Addr, len(items), pm)
	for _, c := range rest {
		p.send(c.Addr, newParentMsg{Parent: newRef})
	}
	if p.pred.Valid() && p.pred.Addr != p.Addr {
		p.send(p.pred.Addr, pointerUpdate{Succ: newRef, Pred: NilRef, IfCurrent: p.Ref()})
	}
	if p.succ.Valid() && p.succ.Addr != p.Addr && p.succ.Addr != p.pred.Addr {
		p.send(p.succ.Addr, pointerUpdate{Pred: newRef, Succ: NilRef, IfCurrent: p.Ref()})
	}
	p.send(p.sys.serverAddr, ringReplace{Old: p.Ref(), New: newRef})
	if p.succ.Valid() && p.succ.Addr != p.Addr {
		p.send(p.succ.Addr, substituteMsg{Old: p.Ref(), New: newRef, Origin: p.Addr})
	}
	p.sys.stats.Promotions++
	p.stop()
}

// leaveEmpty runs the leave triangle (Fig. 2 right) for a t-peer with no
// s-network, then dumps its data onto its successor (Table 1, n.loaddump).
func (p *Peer) leaveEmpty() {
	if !p.succ.Valid() || p.succ.Addr == p.Addr {
		// Last t-peer of the system.
		p.send(p.sys.serverAddr, ringUnregister{Self: p.Ref()})
		p.stop()
		return
	}
	p.send(p.pred.Addr, tLeaveToPred{Leaver: p.Ref(), Succ: p.succ})
	// Departure completes when succ confirms with tLeaveDone. If a
	// triangle counterparty dies first the confirmation never comes, so
	// the leaver force-finishes after a timeout rather than lingering
	// half-departed with its mutex set.
	p.sys.rt.Schedule(p.sys.Cfg.JoinTimeout, func() {
		if p.alive && p.leaving {
			p.finishEmptyLeave()
		}
	})
}

// handleTLeaveToPred is pre receiving the first edge of the leave triangle.
// If pre is itself mid-join it retries shortly rather than interleaving the
// two topology changes.
func (p *Peer) handleTLeaveToPred(from runtime.Addr, m tLeaveToPred) {
	if p.joining {
		retry := m
		p.sys.rt.Schedule(10*runtime.Millisecond, func() {
			if p.alive {
				p.handleTLeaveToPred(from, retry)
			}
		})
		return
	}
	if p.succ.Addr != m.Leaver.Addr {
		// Stale: the leaver is no longer our successor.
		return
	}
	oldSucc := p.succ
	p.succ = m.Succ
	p.watch(m.Succ.Addr)
	if oldSucc.Addr != p.pred.Addr {
		p.unwatch(oldSucc.Addr)
	}
	p.send(m.Succ.Addr, tLeaveToSucc{Leaver: m.Leaver, Pred: p.Ref()})
}

// handleTLeaveToSucc is suc verifying and completing the leave triangle:
// "only if they are the same peer, will the peer suc set its predecessor
// pointer to peer pre and send a packet to the leaving peer".
func (p *Peer) handleTLeaveToSucc(m tLeaveToSucc) {
	if p.pred.Addr != m.Leaver.Addr {
		return
	}
	oldPred := p.pred
	p.pred = m.Pred
	p.segLo = m.Pred.ID
	p.watch(m.Pred.Addr)
	if oldPred.Addr != p.succ.Addr {
		p.unwatch(oldPred.Addr)
	}
	p.send(m.Leaver.Addr, tLeaveDone{})
	// The leaver's segment folds into ours; circulate the substitution so
	// stale fingers route here. The leaver dumps its data on us when it
	// receives tLeaveDone.
	p.handleSubstitute(substituteMsg{Old: m.Leaver, New: p.Ref(), Origin: p.Addr})
}

// finishEmptyLeave completes the departure after the triangle closes.
func (p *Peer) finishEmptyLeave() {
	items := p.withOwned(slices.Clone(p.data.all()))
	if len(items) > 0 && p.succ.Valid() && p.succ.Addr != p.Addr {
		p.sendData(p.succ.Addr, len(items), itemsMsg{Items: items})
	}
	p.send(p.sys.serverAddr, ringUnregister{Self: p.Ref()})
	p.stop()
}

// handlePromote converts an s-peer into the t-peer it is substituting.
func (p *Peer) handlePromote(m promoteMsg) {
	p.Role = TPeer
	p.ID = m.ID
	p.tpeer = p.Ref()
	p.segLo = m.Pred.ID
	oldCP := p.cp
	p.cp = NilRef
	if oldCP.Valid() {
		p.unwatch(oldCP.Addr)
	}
	p.pred = m.Pred
	p.succ = m.Succ
	p.fingers.load(m.Fingers)
	for _, it := range m.Items {
		p.dataPut(it)
		p.ownedAdd(it)
	}
	for _, c := range m.Children {
		p.addChild(c)
		p.watch(c.Addr)
	}
	if p.pred.Valid() && p.pred.Addr != p.Addr {
		p.watch(p.pred.Addr)
	}
	if p.succ.Valid() && p.succ.Addr != p.Addr {
		p.watch(p.succ.Addr)
	}
	p.startFingerTicker()
	if p.sys.Cfg.TrackerMode {
		p.ensureIndex()
		p.announceItems(m.Items)
	}
}

// handleNewParent re-parents this peer onto the promoted substitute.
func (p *Peer) handleNewParent(m newParentMsg) {
	if p.Role != SPeer {
		return
	}
	old := p.cp
	p.cp = m.Parent
	p.tpeer = m.Parent
	if old.Valid() {
		p.unwatch(old.Addr)
	}
	p.watch(m.Parent.Addr)
}

// handleSubstitute swaps Old for New in the ring pointers and finger table,
// then forwards the notice along successor pointers. The circulation
// terminates when it reaches the substitute itself (which occupies the old
// ring position, so a full traversal always lands there) or its origin.
func (p *Peer) handleSubstitute(m substituteMsg) {
	if p.Role != TPeer {
		return
	}
	// A swapped-in ring neighbor needs a failure detector like any other:
	// without it a substitute that later crashes is never detected and the
	// dead pointer survives quiescence.
	if p.pred.Addr == m.Old.Addr {
		p.pred = m.New
		p.segLo = m.New.ID
		if m.New.Addr != p.Addr {
			p.watch(m.New.Addr)
		}
	}
	if p.succ.Addr == m.Old.Addr {
		p.succ = m.New
		if m.New.Addr != p.Addr {
			p.watch(m.New.Addr)
		}
	}
	p.fingers.replace(m.Old.Addr, m.New)
	if p.Addr == m.New.Addr {
		return // the substitute swallows the notice
	}
	if p.succ.Valid() && p.succ.Addr != m.Origin && p.succ.Addr != m.New.Addr && p.succ.Addr != p.Addr {
		p.send(p.succ.Addr, m)
	}
}

// handlePointerUpdate applies a ring pointer patch, honoring the IfCurrent
// condition so stale repairs cannot overwrite newer pointers.
func (p *Peer) handlePointerUpdate(m pointerUpdate) {
	if m.Pred.Valid() {
		if !m.IfCurrent.Valid() || p.pred.Addr == m.IfCurrent.Addr || !p.pred.Valid() {
			segChanged := p.segLo != m.Pred.ID
			p.pred = m.Pred
			p.segLo = m.Pred.ID
			p.watch(m.Pred.Addr)
			if segChanged {
				// A re-anchor can shrink our arc; anything we no
				// longer own must move to its owner.
				p.rehomeForeignItems()
			}
		}
	}
	if m.Succ.Valid() {
		if !m.IfCurrent.Valid() || p.succ.Addr == m.IfCurrent.Addr || !p.succ.Valid() {
			p.succ = m.Succ
			p.watch(m.Succ.Addr)
		}
	}
}

// --- finger maintenance ---------------------------------------------------------

// closestPreceding returns the known t-peer closest to target from below,
// skipping suspected-dead entries while their repair is pending.
func (p *Peer) closestPreceding(target idspace.ID) Ref {
	fs := p.fingers.entries()
	for i := len(fs) - 1; i >= 0; i-- {
		f := fs[i]
		if f.Valid() && f.Addr != p.Addr && idspace.StrictBetween(p.ID, f.ID, target) && !p.suspected(f.Addr) {
			return f
		}
	}
	if p.succ.Valid() && p.succ.Addr != p.Addr && idspace.StrictBetween(p.ID, p.succ.ID, target) {
		return p.succ
	}
	return NilRef
}

// refreshFingers refreshes a few finger entries per tick by resolving their
// targets through the ring.
func (p *Peer) refreshFingers() {
	if p.sys.Cfg.FingerRefreshEvery < p.sys.Cfg.HelloTimeout {
		p.sys.expireNow()
	}
	if !p.alive || p.Role != TPeer {
		return
	}
	if !p.succ.Valid() {
		// Orphaned ring member (both triangle counterparties died):
		// re-anchor through the server's registry.
		p.send(p.sys.serverAddr, ringLocate{Self: p.Ref()})
		return
	}
	p.stabilizeRing()
	p.fingers.size()
	first := p.sys.newTags(fingerRoundLen)
	lo := p.fingers.openRound(first)
	for k := 0; k < fingerRoundLen; k++ {
		idx := lo + k
		p.routeFindSucc(findSuccReq{Target: idspace.FingerStart(p.ID, idx), Origin: p.Addr, Tag: first + uint64(k), Fidx: idx})
	}
	if !p.fingers.pending(lo, first) {
		return // every probe was answered in place: nothing to time out
	}
	// A refresh that never answers was routed into a dead finger (a crashed
	// peer gives no error). Clearing the slot on timeout makes the next
	// route fall back to lower fingers or the successor, un-wedging the
	// refresh itself. One timer covers the whole round; a slot answered in
	// the meantime, or a round reopened at the same slots eight ticks on,
	// is left alone.
	p.sys.rt.Schedule(p.sys.Cfg.FingerRefreshEvery, func() {
		if p.alive {
			p.fingers.expire(lo, first)
		}
	})
}

// routeFindSucc forwards a successor query one step (or answers it).
func (p *Peer) routeFindSucc(m findSuccReq) {
	if m.Hops > routeHopLimit {
		return // looping route; the refresh timeout clears the finger slot
	}
	if !p.succ.Valid() || p.succ.Addr == p.Addr {
		p.answerFindSucc(m, p.Ref())
		return
	}
	if idspace.Between(p.ID, m.Target, p.succ.ID) {
		p.answerFindSucc(m, p.succ)
		return
	}
	next := p.fingerStep(m.Target)
	m.Hops++
	p.send(next.Addr, m)
}

// answerFindSucc delivers the answer to a successor query. A peer does not
// mail itself: when the answerer is the query's origin (a finger start inside
// (ID, succ.ID], or a probe that routed back home) the answer is applied in
// place, so it crosses no link and the fault layer cannot lose it.
func (p *Peer) answerFindSucc(m findSuccReq, succ Ref) {
	resp := findSuccResp{Succ: succ, Tag: m.Tag, Fidx: m.Fidx}
	if m.Origin == p.Addr {
		p.handleFindSuccResp(resp)
		return
	}
	p.send(m.Origin, resp)
}

func (p *Peer) handleFindSucc(m findSuccReq) {
	if p.Role != TPeer {
		return
	}
	p.routeFindSucc(m)
}

func (p *Peer) handleFindSuccResp(m findSuccResp) {
	// Accept only the answer to the probe currently in flight for the slot:
	// a stale tag means the probe timed out or its round was reopened, and
	// the slot has moved on.
	p.fingers.answer(m.Fidx, m.Tag, m.Succ)
}
