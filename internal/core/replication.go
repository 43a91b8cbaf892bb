package core

import (
	"fmt"
	"sort"

	"repro/internal/idspace"
	"repro/internal/runtime"
)

// This file implements k-replication (Cfg.ReplicationK > 1): every stored
// item is kept on its owning t-peer plus up to k−1 live ring successors, so
// a crash cannot lose the only copy.
//
// Placement rule: the owning t-peer keeps an authoritative copy of every
// in-segment item in p.owned (even under spread placement, where the byte
// payload may physically live on an s-peer below it; s-peers report their
// in-segment items upward every hello tick via ownerAnnounce). The owner
// pushes its owned set down the successor chain as replicaPut batches with
// TTL = k−1; each successor keeps the batch in p.reps and forwards with
// TTL−1. A push that wraps all the way back to the owner proves the ring is
// smaller than k, which counts as fully replicated (min(k, live)).
//
// Repair triggers:
//   - every repPushEvery hello ticks the owner re-pushes (periodic anti-entropy);
//   - a changed owned set, a changed successor, or a detected deficit
//     (tracked rounds count distinct ackers) re-pushes immediately;
//   - the per-tick rehome sweep forwards replicas whose owner is suspected
//     or silent past repExpiry back to the owning segment, where the new
//     owner installs them (churn re-replication);
//   - lookups that route toward a suspected owner serve the local replica
//     and re-install the item on the current owner (read-repair).
//
// All of this is inert at k = 1: no state, no messages, no timers.

// repEntry is one replica held for another owner.
type repEntry struct {
	it    Item
	owner Ref
	seen  runtime.Time // last refresh, for orphan expiry
}

// repPushEvery is the owner's periodic re-push interval in hello ticks.
const repPushEvery = 3

// repExpiry returns how long a replica may go unrefreshed before the rehome
// sweep treats it as orphaned and forwards it back to the owning segment.
func (p *Peer) repExpiry() runtime.Time {
	return 10 * p.sys.Cfg.HelloEvery
}

// replicationOn reports whether this peer participates in replication.
func (p *Peer) replicationOn() bool { return p.sys.Cfg.ReplicationK > 1 }

// ownedAdd records an item in the owner's authoritative copy and marks the
// set dirty for the next push. Value-compare keeps the periodic data fold
// from re-dirtying an unchanged set every tick.
func (p *Peer) ownedAdd(it Item) {
	if !p.replicationOn() || p.Role != TPeer {
		return
	}
	if cur, ok := p.owned[it.DID]; ok && cur == it {
		return
	}
	if p.owned == nil {
		p.owned = make(map[idspace.ID]Item)
	}
	p.owned[it.DID] = it
	p.repDirty = true
}

// replicaSucc returns the next hop of the replica chain: the ring successor,
// detouring via succ2 when the successor is suspected dead (same rule as
// segment routing). NilRef when there is nowhere to push.
func (p *Peer) replicaSucc() Ref {
	next := p.succ
	if len(p.suspect) != 0 && p.suspect[next.Addr] &&
		p.succ2.Valid() && p.succ2.Addr != p.Addr && !p.suspect[p.succ2.Addr] {
		next = p.succ2
	}
	if !next.Valid() || next.Addr == p.Addr {
		return NilRef
	}
	return next
}

// eagerReplicate pushes a single just-stored item down the successor chain
// immediately (Round 0: untracked), so a crash right after the store ack
// still leaves k copies. The periodic tracked push repairs any loss.
func (p *Peer) eagerReplicate(it Item) {
	if !p.replicationOn() || p.Role != TPeer {
		return
	}
	succ := p.replicaSucc()
	if !succ.Valid() {
		return
	}
	p.sys.stats.ReplicasPushed++
	p.sendData(succ.Addr, 1, replicaPut{
		Owner: p.Ref(),
		TTL:   p.sys.Cfg.ReplicationK - 1,
		Items: []Item{it},
	})
}

// syncReplicas is the owner-side per-hello-tick replication maintenance:
// fold locally stored in-segment data into the owned set, evaluate the
// previous tracked round's ack count, and push the owned set down the
// successor chain when anything changed, a deficit is suspected, or the
// periodic interval elapsed.
func (p *Peer) syncReplicas() {
	// Fold in-segment data into owned: covers promotion, crash takeover and
	// direct t-peer placement without extra hooks (value-compare in ownedAdd
	// keeps this from perpetually re-dirtying).
	for _, it := range p.data {
		if p.inLocalSegment(p.segmentID(it.Key)) {
			p.ownedAdd(it)
		}
	}
	// Evaluate the previous round: a wrap (our own push came back around the
	// ring) means the ring is smaller than k and every live t-peer holds the
	// set; otherwise count distinct ackers against k−1.
	if p.repRound != 0 {
		if p.repWrapped {
			p.repDeficit = 0
		} else {
			deficit := p.sys.Cfg.ReplicationK - 1 - len(p.repAcks)
			if deficit < 0 {
				deficit = 0
			}
			p.repDeficit = deficit
		}
		p.repRound = 0
		p.repWrapped = false
		for a := range p.repAcks {
			delete(p.repAcks, a)
		}
	}
	succ := p.replicaSucc()
	if !succ.Valid() || len(p.owned) == 0 {
		p.repDeficit = 0
		p.repSucc = runtime.None
		return
	}
	succChanged := succ.Addr != p.repSucc
	p.repSucc = succ.Addr
	p.repTicks++
	if !p.repDirty && p.repDeficit == 0 && !succChanged && p.repTicks < repPushEvery {
		return
	}
	p.repTicks = 0
	p.repDirty = false
	round := p.sys.newTag()
	p.repRound = round
	if p.repAcks == nil {
		p.repAcks = make(map[runtime.Addr]bool)
	}
	items := make([]Item, 0, len(p.owned))
	for _, it := range p.owned {
		items = append(items, it)
	}
	sortItemsByDID(items)
	p.sys.stats.ReplicasPushed += uint64(len(items))
	p.sendData(succ.Addr, len(items), replicaPut{
		Owner: p.Ref(),
		Round: round,
		TTL:   p.sys.Cfg.ReplicationK - 1,
		Items: items,
	})
}

// announceOwned is the s-peer-side per-hello-tick half of the placement
// rule: report in-segment items physically stored here (spread placement)
// to the owning t-peer so its authoritative copy covers them.
func (p *Peer) announceOwned() {
	if len(p.data) == 0 || !p.tpeer.Valid() || p.tpeer.Addr == p.Addr {
		return
	}
	var items []Item
	for _, it := range p.data {
		if p.inLocalSegment(p.segmentID(it.Key)) {
			items = append(items, it)
		}
	}
	if len(items) == 0 {
		return
	}
	sortItemsByDID(items)
	p.sendData(p.tpeer.Addr, len(items), ownerAnnounce{Items: items})
}

// handleReplicaPut installs a replica batch and forwards it one hop further
// down the successor chain.
func (p *Peer) handleReplicaPut(from runtime.Addr, m replicaPut) {
	if !p.replicationOn() {
		return
	}
	if m.Owner.Addr == p.Addr {
		// Our own push wrapped around the ring: fewer than k t-peers are
		// live, so every one of them holds the set — no deficit.
		if m.Round != 0 && m.Round == p.repRound {
			p.repWrapped = true
		}
		return
	}
	if p.Role != TPeer {
		return
	}
	now := p.sys.rt.Now()
	for _, it := range m.Items {
		if p.inLocalSegment(p.segmentID(it.Key)) {
			// The pusher thinks it owns a segment that is now ours (its
			// pred pointer lags, or the owner crashed and we took over):
			// install authoritatively instead of as a replica.
			if _, ok := p.data[it.DID]; !ok {
				p.storeLocal(it)
			}
			p.ownedAdd(it)
			continue
		}
		if p.reps == nil {
			p.reps = make(map[idspace.ID]repEntry)
		}
		p.reps[it.DID] = repEntry{it: it, owner: m.Owner, seen: now}
	}
	if m.Round != 0 {
		p.send(m.Owner.Addr, replicaAck{Round: m.Round})
	}
	if m.TTL > 1 {
		// Forward even when the next hop is the owner: the wrap delivery is
		// what tells a small ring it is fully replicated. TTL bounds the
		// chain either way.
		if succ := p.replicaSucc(); succ.Valid() {
			p.sendData(succ.Addr, len(m.Items), replicaPut{
				Owner: m.Owner,
				Round: m.Round,
				TTL:   m.TTL - 1,
				Items: m.Items,
			})
		}
	}
}

// handleReplicaAck counts one distinct acker for the owner's in-flight
// tracked round.
func (p *Peer) handleReplicaAck(from runtime.Addr, m replicaAck) {
	if m.Round == 0 || m.Round != p.repRound {
		return
	}
	if p.repAcks == nil {
		p.repAcks = make(map[runtime.Addr]bool)
	}
	p.repAcks[from] = true
}

// handleReplicaDrop retires replicas of deleted items along the chain.
func (p *Peer) handleReplicaDrop(from runtime.Addr, m replicaDrop) {
	if !p.replicationOn() || m.Owner.Addr == p.Addr {
		return
	}
	for _, did := range m.DIDs {
		delete(p.reps, did)
	}
	if m.TTL > 1 {
		if succ := p.replicaSucc(); succ.Valid() {
			p.send(succ.Addr, replicaDrop{Owner: m.Owner, TTL: m.TTL - 1, DIDs: m.DIDs})
		}
	}
}

// handleOwnerAnnounce folds an s-peer's in-segment holdings into the owner's
// authoritative copy.
func (p *Peer) handleOwnerAnnounce(m ownerAnnounce) {
	if !p.replicationOn() || p.Role != TPeer {
		return
	}
	for _, it := range m.Items {
		if p.inLocalSegment(p.segmentID(it.Key)) {
			p.ownedAdd(it)
		}
	}
}

// replicaFallback serves a lookup from the local replica set when the owner
// is suspected dead or the routing strategy's next hop toward it is (no live
// detour either), re-installing the item on the current owner (read-repair)
// so the next lookup routes normally. Returns false when normal routing
// should proceed.
func (p *Peer) replicaFallback(did, sid idspace.ID) (Item, bool) {
	if !p.replicationOn() || p.Role != TPeer || len(p.reps) == 0 {
		return Item{}, false
	}
	e, ok := p.reps[did]
	if !ok {
		return Item{}, false
	}
	suspected := func(a runtime.Addr) bool {
		return len(p.suspect) != 0 && p.suspect[a]
	}
	next := p.sys.route.NextHop(p, sid)
	if !suspected(e.owner.Addr) && next.Valid() && !suspected(next.Addr) {
		return Item{}, false // the route is believed healthy; let it run
	}
	p.sys.stats.ReplicaServes++
	p.sys.stats.ReadRepairs++
	// Tag 0: the repair's storeAck hits finishOp(0), a no-op. The forward
	// detours around the suspected hop, reaching the segment's new owner.
	p.forwardTowardSegment(sid, storeReq{Item: e.it, SID: sid, Origin: p.Ref(), Hops: 1}, runtime.None)
	return e.it, true
}

// sweepReplicas extends the per-tick rehome sweep to replication state:
// owned entries whose segment moved away are dropped (and forwarded with the
// rest of the batch when absent from data), and held replicas are promoted
// (we became the owner), or forwarded home when their owner is suspected
// dead or silent past expiry.
func (p *Peer) sweepReplicas(moved []Item) []Item {
	if !p.replicationOn() || (len(p.owned) == 0 && len(p.reps) == 0) {
		return moved
	}
	var foreign []Item
	for _, it := range p.owned {
		if !p.inLocalSegment(p.segmentID(it.Key)) {
			foreign = append(foreign, it)
		}
	}
	sortItemsByDID(foreign)
	for _, it := range foreign {
		delete(p.owned, it.DID)
		p.repDirty = true
		moved = append(moved, it)
	}
	now := p.sys.rt.Now()
	var promote, orphaned []Item
	for _, e := range p.reps {
		switch {
		case p.Role == TPeer && p.inLocalSegment(p.segmentID(e.it.Key)):
			promote = append(promote, e.it)
		case now-e.seen >= p.repExpiry(),
			len(p.suspect) != 0 && p.suspect[e.owner.Addr]:
			// Forward home immediately on owner suspicion instead of waiting
			// out the expiry: shortens the unavailability window after an
			// owner crash. A false positive is an idempotent re-install.
			orphaned = append(orphaned, e.it)
		}
	}
	sortItemsByDID(promote)
	sortItemsByDID(orphaned)
	for _, it := range promote {
		delete(p.reps, it.DID)
		if _, ok := p.data[it.DID]; !ok {
			p.storeLocal(it)
		}
		p.ownedAdd(it)
		p.sys.stats.ReplicaPromotions++
	}
	for _, it := range orphaned {
		delete(p.reps, it.DID)
		moved = append(moved, it)
	}
	return moved
}

// transferOwned hands the in-range slice of the owned set to a joining
// predecessor along with the data items handleLoadTransfer already collected
// (spread placement can leave the owner holding an authoritative copy whose
// bytes live on an s-peer, and the joiner must become able to serve it).
func (p *Peer) transferOwned(m loadTransferReq, moved []Item) []Item {
	if !p.replicationOn() || len(p.owned) == 0 || m.Lo == m.Hi {
		return moved
	}
	seen := make(map[idspace.ID]bool, len(moved))
	for _, it := range moved {
		seen[it.DID] = true
	}
	var extra []Item
	for did, it := range p.owned {
		if idspace.Between(m.Lo, did, m.Hi) {
			delete(p.owned, did)
			p.repDirty = true
			if !seen[did] {
				extra = append(extra, it)
			}
		}
	}
	sortItemsByDID(extra)
	return append(moved, extra...)
}

// appendOwnedExtra adds owned entries absent from the data map to a leave
// dump, so authoritative copies of spread items survive a graceful leave.
// Callers re-sort the combined batch.
func (p *Peer) appendOwnedExtra(items []Item) []Item {
	if !p.replicationOn() || len(p.owned) == 0 {
		return items
	}
	seen := make(map[idspace.ID]bool, len(items))
	for _, it := range items {
		seen[it.DID] = true
	}
	var extra []Item
	for did, it := range p.owned {
		if !seen[did] {
			extra = append(extra, it)
		}
	}
	sortItemsByDID(extra)
	return append(items, extra...)
}

// --- delete -----------------------------------------------------------------

// Delete removes a key from the system: the owning t-peer deletes its copy,
// floods the removal through its s-network (spread and cached copies die
// too) and retires replicas down the successor chain. done may be nil.
func (p *Peer) Delete(key string, done func(OpResult)) {
	o, qid := p.newOp("delete", key, done)
	if p.Role == TPeer && p.inLocalSegment(o.sid) {
		existed := p.ownerDelete(o.did)
		r := OpResult{OK: true, Hops: 0, Holder: p.Ref()}
		if existed {
			r.Value = "deleted"
		}
		p.finishOp(qid, r)
		return
	}
	req := deleteReq{Key: key, DID: o.did, SID: o.sid, Origin: p.Ref(), Tag: qid, Hops: 1}
	p.forwardTowardSegment(req.SID, req, runtime.None)
}

// ownerDelete removes every local trace of an item at its owning t-peer and
// propagates the removal to spread copies (tree flood) and replicas
// (successor chain). Reports whether any local copy existed.
//
// Known limitation (documented in DESIGN.md): there are no tombstones, so a
// replica stranded outside the chain (e.g. on a partitioned peer) can
// resurrect a deleted item via orphan forwarding.
func (p *Peer) ownerDelete(did idspace.ID) bool {
	_, existed := p.data[did]
	delete(p.data, did)
	if _, ok := p.owned[did]; ok {
		delete(p.owned, did)
		p.repDirty = true
		existed = true
	}
	delete(p.reps, did)
	if p.sys.Cfg.TrackerMode && p.index != nil {
		if _, ok := p.index[did]; ok {
			delete(p.index, did)
			existed = true
		}
	}
	p.forget(did)
	if len(p.children) > 0 {
		var flood any = deleteFlood{DID: did, TTL: 1 << 20}
		for i := range p.children {
			p.send(p.children[i].Ref.Addr, flood)
		}
	}
	// Requester-side surrogate copies (handleFound with Caching on) live in
	// other s-networks that this tree flood cannot reach; walk the ring so
	// every t-peer purges and re-floods its own tree. Never sent with
	// Caching off — no copy can exist outside the owner's segment then.
	if p.sys.Cfg.Caching && p.succ.Valid() && p.succ.Addr != p.Addr {
		p.send(p.succ.Addr, deleteRing{DID: did, Origin: p.Ref(), TTL: 1 << 20})
	}
	if p.replicationOn() {
		if succ := p.replicaSucc(); succ.Valid() {
			p.send(succ.Addr, replicaDrop{
				Owner: p.Ref(),
				TTL:   p.sys.Cfg.ReplicationK - 1,
				DIDs:  []idspace.ID{did},
			})
		}
	}
	return existed
}

// handleDeleteReq advances a deletion toward the owning segment, mirroring
// handleStoreReq.
func (p *Peer) handleDeleteReq(from runtime.Addr, m deleteReq) {
	if m.Hops > routeHopLimit {
		return // looping route; the op timer fails the delete
	}
	p.maybeAck(from)
	if !p.inLocalSegment(m.SID) || p.Role == SPeer {
		m.Hops++
		p.forwardTowardSegment(m.SID, m, from)
		return
	}
	existed := p.ownerDelete(m.DID)
	p.send(m.Origin.Addr, deleteAck{Tag: m.Tag, Existed: existed, Hops: m.Hops})
}

// handleDeleteAck closes the delete operation at its origin.
func (p *Peer) handleDeleteAck(m deleteAck) {
	r := OpResult{OK: true, Hops: m.Hops}
	if m.Existed {
		r.Value = "deleted"
	}
	p.finishOp(m.Tag, r)
}

// handleDeleteFlood removes stored and cached copies down an s-network tree.
// Path-cache hints for the item die with it: the route they name leads to a
// holder that no longer has anything to serve.
func (p *Peer) handleDeleteFlood(from runtime.Addr, m deleteFlood) {
	if _, ok := p.data[m.DID]; ok {
		delete(p.data, m.DID)
		if p.sys.Cfg.TrackerMode && p.Role == SPeer && p.tpeer.Valid() {
			p.send(p.tpeer.Addr, indexRemove{DID: m.DID, Holder: p.Ref()})
		}
	}
	p.forget(m.DID)
	if m.TTL <= 1 {
		return
	}
	var flood any = deleteFlood{DID: m.DID, TTL: m.TTL - 1}
	for i := range p.children {
		if a := p.children[i].Ref.Addr; a != from {
			p.send(a, flood)
		}
	}
}

// handleDeleteRing purges one t-peer's surrogate cache on the ring-wide
// delete walk and floods the purge down its own s-network tree, then passes
// the walk to its successor until it closes back at the origin.
func (p *Peer) handleDeleteRing(m deleteRing) {
	if p.Addr == m.Origin.Addr || m.TTL <= 1 {
		return
	}
	p.forget(m.DID)
	if len(p.children) > 0 {
		var flood any = deleteFlood{DID: m.DID, TTL: 1 << 20}
		for i := range p.children {
			p.send(p.children[i].Ref.Addr, flood)
		}
	}
	if p.Role == TPeer && p.succ.Valid() && p.succ.Addr != p.Addr && p.succ.Addr != m.Origin.Addr {
		m.TTL--
		p.send(p.succ.Addr, m)
	}
}

// --- invariant ---------------------------------------------------------------

// CheckReplication verifies the replication invariant at quiescence: every
// item present in any live peer's database has at least min(k, live t-peers)
// distinct holders across data, owned and replica sets. Partial (multi-
// process) views skip the check — no single process sees every holder.
func (s *System) CheckReplication() error {
	k := s.Cfg.ReplicationK
	if k <= 1 || s.partial {
		return nil
	}
	tps := s.TPeers()
	if len(tps) == 0 {
		return nil
	}
	want := k
	if len(tps) < want {
		want = len(tps)
	}
	holders := make(map[idspace.ID]map[runtime.Addr]bool)
	addHolder := func(did idspace.ID, a runtime.Addr) {
		m := holders[did]
		if m == nil {
			m = make(map[runtime.Addr]bool)
			holders[did] = m
		}
		m[a] = true
	}
	live := make(map[idspace.ID]bool)
	for _, p := range s.Peers() {
		for did := range p.data {
			live[did] = true
			addHolder(did, p.Addr)
		}
		for did := range p.owned {
			addHolder(did, p.Addr)
		}
		for did := range p.reps {
			addHolder(did, p.Addr)
		}
	}
	dids := make([]idspace.ID, 0, len(live))
	for did := range live {
		dids = append(dids, did)
	}
	sort.Slice(dids, func(i, j int) bool { return dids[i] < dids[j] })
	for _, did := range dids {
		if n := len(holders[did]); n < want {
			return fmt.Errorf("core: item %x has %d replicas, want >= %d (k=%d, %d t-peers)",
				did, n, want, k, len(tps))
		}
	}
	return nil
}
