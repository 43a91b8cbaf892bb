package core

import (
	"hash/crc32"
	"unsafe"

	"repro/internal/idspace"
	"repro/internal/runtime"
)

// This file implements k-replication (Cfg.ReplicationK > 1): every stored
// item is kept on its owning t-peer plus up to k−1 live ring successors, so
// a crash cannot lose the only copy.
//
// Placement rule: the owning t-peer keeps an authoritative copy of every
// in-segment item in p.owned (even under spread placement, where the byte
// payload may physically live on an s-peer below it). The owner pushes items
// down the successor chain as replicaPut batches with TTL = k−1; each
// successor keeps the batch in p.reps and forwards with TTL−1. A push that
// wraps all the way back to the owner proves the ring is smaller than k,
// which counts as fully replicated (min(k, live)).
//
// What a hello tick sends is proportional to what changed, not to what is
// stored:
//   - delta: items added to owned since the last tick go out as one tracked
//     replicaPut (on top of the untracked eager push at store time);
//   - digest: every repPushEvery ticks the owner sends a replicaDigest (count
//     and XOR of item checksums) instead of the set; holders that match
//     refresh their replicas and ack, a holder that differs stays silent;
//   - full on an edge: the whole owned set goes out, marked Full, only when
//     the successor changed, the last tracked round (put or digest) drew
//     fewer than k−1 acks, or an item left owned. A Full batch is
//     authoritative: the holder forwards home whatever else it kept for
//     that owner.
//
// S-peers report upward by the same rule (announceOwned): the items stored
// since the last ownerAnnounce, and the whole in-segment set only when the
// t-peer changed or on a slow backstop — the owner already records an item
// on the store path, so the announce only has to cover takeover.
//
// Further repair triggers:
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

// repPushEvery is the owner's anti-entropy interval in hello ticks: a digest
// goes out on every repPushEvery-th tick that does not send the full set.
const repPushEvery = 3

// announceFullEvery is the s-peer's backstop interval in hello ticks for
// re-sending its whole in-segment set to an unchanged t-peer; it covers a
// lost ownerAnnounce, which nothing acknowledges.
const announceFullEvery = 10 * repPushEvery

// repExpiry returns how long a replica may go unrefreshed before the rehome
// sweep treats it as orphaned and forwards it back to the owning segment.
func (p *Peer) repExpiry() runtime.Time {
	return 10 * p.sys.Cfg.HelloEvery
}

// replicationOn reports whether this peer participates in replication.
func (p *Peer) replicationOn() bool { return p.sys.Cfg.ReplicationK > 1 }

// itemSum is one item's term in a replicaDigest: its data id and a checksum
// of its value. The avalanche on top keeps the XOR over a set from cancelling
// when two items swap values.
func itemSum(it Item) uint64 {
	// View the value's bytes in place: []byte(it.Value) would copy every
	// stored value once per digest. The checksum only reads them. MakeTable
	// hands out the one shared Castagnoli table and builds it on first use,
	// so a k = 1 system never pays for it.
	value := unsafe.Slice(unsafe.StringData(it.Value), len(it.Value))
	crc := crc32.Checksum(value, crc32.MakeTable(crc32.Castagnoli))
	return idspace.Mix64(uint64(it.DID) ^ uint64(crc)<<32 ^ uint64(len(it.Value)))
}

// ownedAdd records an item in the owner's authoritative copy and queues it
// for the next tick's delta push. Value-compare keeps the periodic data fold
// and repeated announces from re-queueing an unchanged item.
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
	p.repPending = append(p.repPending, it.DID)
}

// takePending returns the items of from that were queued since the last
// push or announce, in DID order, and releases the queue.
func (p *Peer) takePending(from map[idspace.ID]Item) []Item {
	if len(p.repPending) == 0 {
		return nil
	}
	items := make([]Item, 0, len(p.repPending))
	for _, did := range p.repPending {
		if it, ok := from[did]; ok {
			items = append(items, it)
		}
	}
	p.repPending = nil
	sortItemsByDID(items)
	// An item stored twice within a tick is queued twice; send it once.
	uniq := items[:0]
	for i, it := range items {
		if i == 0 || it.DID != items[i-1].DID {
			uniq = append(uniq, it)
		}
	}
	return uniq
}

// replicaSucc returns the next hop of the replica chain: the ring successor,
// detouring via succ2 when the successor is suspected dead (same rule as
// segment routing). NilRef when there is nowhere to push.
func (p *Peer) replicaSucc() Ref {
	next := p.detour(p.succ)
	if !next.Valid() || next.Addr == p.Addr {
		return NilRef
	}
	return next
}

// pushReplicas sends one owner-originated replicaPut down the chain.
func (p *Peer) pushReplicas(succ Ref, round uint64, full bool, items []Item) {
	p.sys.stats.ReplicasPushed += uint64(len(items))
	p.sendData(succ.Addr, len(items), replicaPut{
		Owner: p.Ref(),
		Round: round,
		TTL:   p.sys.Cfg.ReplicationK - 1,
		Items: items,
		Full:  full,
	})
}

// eagerReplicate pushes a single just-stored item down the successor chain
// immediately (Round 0: untracked), so a crash right after the store ack
// still leaves k copies. The next tick's tracked delta repairs any loss.
func (p *Peer) eagerReplicate(it Item) {
	if !p.replicationOn() || p.Role != TPeer {
		return
	}
	if succ := p.replicaSucc(); succ.Valid() {
		p.pushReplicas(succ, 0, false, []Item{it})
	}
}

// syncReplicas is the owner-side per-hello-tick replication maintenance:
// fold locally stored in-segment data into the owned set, evaluate the
// previous tracked round's ack count, then send what this tick calls for —
// the full set on an edge, else the pending delta, and a digest behind it on
// every repPushEvery-th tick.
func (p *Peer) syncReplicas() {
	// Fold in-segment data into owned: covers promotion, crash takeover and
	// direct t-peer placement without extra hooks (value-compare in ownedAdd
	// keeps this from perpetually re-queueing).
	for _, it := range p.data {
		if p.inLocalSegment(it.DID) {
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
		if p.repDigest && p.repDeficit > 0 {
			p.sys.stats.DigestMismatches++
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
		p.repPending = nil
		return
	}
	succChanged := succ.Addr != p.repSucc
	p.repSucc = succ.Addr
	p.repTicks++
	full := p.repDirty || p.repDeficit > 0 || succChanged
	digest := !full && p.repTicks >= repPushEvery
	delta := p.takePending(p.owned)
	if !full && !digest && len(delta) == 0 {
		return
	}
	if p.repAcks == nil {
		p.repAcks = make(map[runtime.Addr]bool)
	}
	p.repRound = p.sys.newTag()
	p.repDigest = digest
	if full {
		p.repDirty = false
		p.repTicks = 0
		items := make([]Item, 0, len(p.owned))
		for _, it := range p.owned {
			items = append(items, it)
		}
		sortItemsByDID(items)
		p.sys.stats.ReplicaFullPushes++
		p.pushReplicas(succ, p.repRound, true, items)
		return
	}
	if len(delta) > 0 {
		// With a digest right behind it the delta goes untracked: the
		// digest only matches at a holder the delta reached, so its ack
		// covers both, and a shared round would let the delta's ack hide a
		// digest mismatch.
		round := p.repRound
		if digest {
			round = 0
		}
		p.pushReplicas(succ, round, false, delta)
	}
	if digest {
		// Sent on every periodic tick, pending delta or not: replicas age
		// out at repExpiry unless a digest (or a full push) refreshes them.
		p.repTicks = 0
		var sum uint64
		for _, it := range p.owned {
			sum ^= itemSum(it)
		}
		p.sys.stats.ReplicaDigests++
		p.send(succ.Addr, replicaDigest{
			Owner: p.Ref(),
			Round: p.repRound,
			TTL:   p.sys.Cfg.ReplicationK - 1,
			Count: len(p.owned),
			Sum:   sum,
		})
	}
}

// announceOwned is the s-peer-side per-hello-tick half of the placement
// rule: report in-segment items physically stored here (spread placement)
// to the owning t-peer so its authoritative copy covers them. The owner
// records an item itself on the store path, so only the items stored since
// the last announce go up; the whole in-segment set goes to a t-peer that
// has not had it yet (promotion, crash takeover, re-attachment) and every
// announceFullEvery ticks.
func (p *Peer) announceOwned() {
	if len(p.data) == 0 || !p.tpeer.Valid() || p.tpeer.Addr == p.Addr {
		return
	}
	p.annTicks++
	var items []Item
	if p.tpeer.Addr != p.annTo || p.annTicks >= announceFullEvery {
		p.annTo = p.tpeer.Addr
		p.annTicks = 0
		p.repPending = nil
		for _, it := range p.data {
			items = append(items, it)
		}
		sortItemsByDID(items)
	} else {
		items = p.takePending(p.data)
	}
	inSeg := items[:0]
	for _, it := range items {
		if p.inLocalSegment(it.DID) {
			inSeg = append(inSeg, it)
		}
	}
	if len(inSeg) > 0 {
		p.sendData(p.tpeer.Addr, len(inSeg), ownerAnnounce{Items: inSeg})
	}
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
		if p.inLocalSegment(it.DID) {
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
	if m.Full {
		// The batch is the owner's whole set, so anything else held for it
		// (its segment shrank, a replicaDrop was lost) is no longer its
		// replica. Forward it home like an expired one instead of waiting
		// out repExpiry — until it is gone every digest would mismatch.
		// There are no tombstones, so dropping it silently is not safe.
		// Every entry the batch named was stamped with now just above.
		var stale []Item
		for did, e := range p.reps {
			if e.owner.Addr == m.Owner.Addr && e.seen != now {
				stale = append(stale, e.it)
				delete(p.reps, did)
			}
		}
		p.rehome(stale)
	}
	if m.Round != 0 {
		p.send(m.Owner.Addr, replicaAck{Round: m.Round})
	}
	if m.TTL > 1 {
		// Forward even when the next hop is the owner: the wrap delivery is
		// what tells a small ring it is fully replicated. TTL bounds the
		// chain either way.
		if succ := p.replicaSucc(); succ.Valid() {
			m.TTL--
			p.sendData(succ.Addr, len(m.Items), m)
		}
	}
}

// handleReplicaDigest compares the owner's digest with the replicas held for
// it. On a match they are as fresh as a re-push would make them: refresh,
// ack, forward. On a mismatch do nothing at all — not even forward, since a
// digest that wrapped back to the owner of a small ring would clear the very
// deficit the silence is meant to raise.
func (p *Peer) handleReplicaDigest(m replicaDigest) {
	if !p.replicationOn() {
		return
	}
	if m.Owner.Addr == p.Addr {
		if m.Round != 0 && m.Round == p.repRound {
			p.repWrapped = true
		}
		return
	}
	if p.Role != TPeer {
		return
	}
	count, sum := 0, uint64(0)
	for _, e := range p.reps {
		if e.owner.Addr == m.Owner.Addr {
			count++
			sum ^= itemSum(e.it)
		}
	}
	if count != m.Count || sum != m.Sum {
		return
	}
	now := p.sys.rt.Now()
	for did, e := range p.reps {
		if e.owner.Addr == m.Owner.Addr {
			e.seen = now
			p.reps[did] = e
		}
	}
	p.send(m.Owner.Addr, replicaAck{Round: m.Round})
	if m.TTL > 1 {
		if succ := p.replicaSucc(); succ.Valid() {
			m.TTL--
			p.send(succ.Addr, m)
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
		if p.inLocalSegment(it.DID) {
			p.ownedAdd(it)
		}
	}
}

// replicaFallback serves a lookup from the local replica set when the owner
// is suspected dead or the configured Route's next hop toward it is (no live
// detour either), re-installing the item on the current owner (read-repair)
// so the next lookup routes normally. Returns false when normal routing
// should proceed.
func (p *Peer) replicaFallback(did idspace.ID) (Item, bool) {
	if !p.replicationOn() || p.Role != TPeer || len(p.reps) == 0 {
		return Item{}, false
	}
	e, ok := p.reps[did]
	if !ok {
		return Item{}, false
	}
	next := p.nextHop(did)
	if !p.suspected(e.owner.Addr) && next.Valid() && !p.suspected(next.Addr) {
		return Item{}, false // the route is believed healthy; let it run
	}
	p.sys.stats.ReplicaServes++
	p.sys.stats.ReadRepairs++
	// Tag 0: the repair's storeAck hits finishOp(0), a no-op. The forward
	// detours around the suspected hop, reaching the segment's new owner.
	p.forwardTowardSegment(did, storeReq{Item: e.it, Origin: p.Ref(), Hops: 1}, runtime.None)
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
		if !p.inLocalSegment(it.DID) {
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
		case p.Role == TPeer && p.inLocalSegment(e.it.DID):
			promote = append(promote, e.it)
		case now-e.seen >= p.repExpiry(),
			p.suspected(e.owner.Addr):
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
	if p.Role == TPeer && p.inLocalSegment(o.did) {
		existed := p.ownerDelete(o.did)
		r := OpResult{OK: true, Hops: 0, Holder: p.Ref()}
		if existed {
			r.Value = "deleted"
		}
		p.finishOp(qid, r)
		return
	}
	p.forwardTowardSegment(o.did, deleteReq{DID: o.did, Origin: p.Ref(), Tag: qid, Hops: 1}, runtime.None)
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
	p.cache.drop(did)
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
	if !p.inLocalSegment(m.DID) || p.Role == SPeer {
		m.Hops++
		p.forwardTowardSegment(m.DID, m, from)
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
func (p *Peer) handleDeleteFlood(from runtime.Addr, m deleteFlood) {
	if _, ok := p.data[m.DID]; ok {
		delete(p.data, m.DID)
		if p.sys.Cfg.TrackerMode && p.Role == SPeer && p.tpeer.Valid() {
			p.send(p.tpeer.Addr, indexRemove{DID: m.DID, Holder: p.Ref()})
		}
	}
	p.cache.drop(m.DID)
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
	p.cache.drop(m.DID)
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
