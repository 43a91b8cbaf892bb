package core

import (
	"hash/crc32"
	"math"
	"slices"
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
// What a tick computes is proportional to what changed, too. The owner's
// digest (ownedSum) and each owner's (count, sum) over the replicas held for
// it (repHold) are running state, kept by the write helpers (dataPut,
// ownedAdd, ownedDel, repPut, repDel), so building a digest and answering
// one cost O(1); a matching digest refreshes its owner's replicas through
// one stamp. The rehome sweep and the fold of data into owned scan a set
// only when it gained an entry or the segment moved since they last ran
// (segKey), and the replica sweep also when a suspicion was raised or some
// owner's replicas may have gone unrefreshed past repExpiry. A quiet tick
// visits no stored item.
//
// Storage: owned, reps and the peer's own data are didSets, slices sorted
// by data id (didset.go). Every batch below is collected in DID order, the
// order the event sequence needs, without a sort; an arc of the ring (a
// load transfer, the items a moved segment left foreign) is cut out as one
// or two contiguous runs, and batches from two sets are merged. Most sets
// hold fewer than ten entries, where a slice takes a third of a map's bytes.
//
// All of this is inert at k = 1: no state, no messages, no timers.

// repEntry is one replica held for another owner.
type repEntry struct {
	it    Item
	owner Ref
	seen  runtime.Time // last refresh, for orphan expiry; see replState.seen
}

func (e repEntry) did() idspace.ID { return e.it.DID }

// replState is a peer's replication state, allocated by rs on the first
// replication write: nil on every peer of a k = 1 system.
type replState struct {
	// owned is the t-peer's authoritative copy of every in-segment item,
	// including spread items whose bytes live on an s-peer below it;
	// ownedSum is the XOR of itemSum over it, the owner's digest.
	owned    didSet[Item]
	ownedSum uint64
	// reps holds replicas kept on behalf of other owners, and holds one
	// aggregate per owner over them.
	reps  didSet[repEntry]
	holds []repHold
	// round is the in-flight tracked round (0 = none), a replicaPut or,
	// when digest is set, a replicaDigest; acks lists its distinct ackers
	// (k−1 at most) and wrapped records that it came back around a ring
	// smaller than k.
	round   uint64
	acks    []runtime.Addr
	wrapped bool
	digest  bool
	// dirty marks that an item left the owned set since the last full push;
	// deficit is the last evaluated replica deficit (0 = fully replicated).
	// Either makes the next tick push the full set.
	dirty bool
	// ticks counts hello ticks since the owner's last full push or digest
	// (at most repPushEvery), annTicks those since an s-peer's last full
	// ownerAnnounce (at most announceFullEvery).
	ticks    uint8
	annTicks uint8
	// ownedAdded and repsDirty mark what the next replica sweep must scan:
	// an entry put into owned, or into reps or a suspicion raised. foldDirty
	// marks that the fold of data into owned may find something: an item
	// put into data or taken out of owned since folded, the key it last ran
	// under.
	ownedAdded bool
	repsDirty  bool
	foldDirty  bool
	folded     segKey
	deficit    int
	// pending lists the data ids added since the last tick: to owned on a
	// t-peer (the next delta replicaPut), to data on an s-peer (the next
	// ownerAnnounce). Released on every flush, so it is nil between writes.
	pending []idspace.ID
	// succ is the successor the last tick pushed to. Its zero value is the
	// server address, never a real successor, so a fresh t-peer's first sync
	// pushes the full set. annTo is the same for an s-peer: the t-peer that
	// has had its full in-segment set.
	succ  runtime.Addr
	annTo runtime.Addr
}

// repHold is the running aggregate over the replicas held for one owner:
// their number, the XOR of their itemSums (what a matching digest carries)
// and the time of the last matching digest, which refreshes them all at
// once. A replica's refresh time is the later of its own seen and stamp;
// oldest is a lower bound on those refresh times, so no replica of the
// owner can have expired before oldest + repExpiry.
type repHold struct {
	owner  runtime.Addr
	count  int
	sum    uint64
	stamp  runtime.Time
	oldest runtime.Time
}

// rs returns the replication state, allocating it on first use. A fresh
// state folds on its first tick: data may hold items put before it existed.
func (p *Peer) rs() *replState {
	if p.repl == nil {
		p.repl = &replState{foldDirty: true}
	}
	return p.repl
}

// owned and reps read the two replica sets; both are empty while repl is
// nil.
func (p *Peer) owned() didSet[Item] {
	if p.repl == nil {
		return didSet[Item]{}
	}
	return p.repl.owned
}

func (p *Peer) reps() didSet[repEntry] {
	if p.repl == nil {
		return didSet[repEntry]{}
	}
	return p.repl.reps
}

// hold returns the aggregate for one owner, nil when nothing is held for it
// (or r is nil).
func (r *replState) hold(owner runtime.Addr) *repHold {
	if r == nil {
		return nil
	}
	for i := range r.holds {
		if r.holds[i].owner == owner {
			return &r.holds[i]
		}
	}
	return nil
}

// expiring reports whether some owner's replicas may have gone unrefreshed
// for expiry.
func (r *replState) expiring(now, expiry runtime.Time) bool {
	for i := range r.holds {
		if now-r.holds[i].oldest >= expiry {
			return true
		}
	}
	return false
}

// seen is a replica's effective refresh time.
func (r *replState) seen(e repEntry) runtime.Time {
	if h := r.hold(e.owner.Addr); h != nil && h.stamp > e.seen {
		return h.stamp
	}
	return e.seen
}

// ownedDel takes an item out of the owner's set. The next tick pushes the
// full set (an item left it) and re-folds data.
func (p *Peer) ownedDel(did idspace.ID) {
	if p.repl == nil {
		return
	}
	if it, ok := p.repl.owned.del(did); ok {
		p.ownedLeft(it)
	}
}

// ownedCut takes every owned item in (lo, hi] out of the set, in DID order.
// repl must be allocated.
func (p *Peer) ownedCut(lo, hi idspace.ID) []Item {
	cut := p.repl.owned.cut(lo, hi)
	for _, it := range cut {
		p.ownedLeft(it)
	}
	return cut
}

// ownedLeft settles the owner's digest and marks for an item taken out of
// owned.
func (p *Peer) ownedLeft(it Item) {
	r := p.repl
	r.ownedSum ^= itemSum(it)
	r.dirty = true
	r.foldDirty = true
}

// repPut installs or replaces one replica, keeping the per-owner aggregates,
// and marks the set for the next replica sweep.
func (p *Peer) repPut(e repEntry) {
	r := p.rs()
	if old, ok := r.reps.put(e); ok {
		p.holdDrop(old)
	}
	r.repsDirty = true
	if h := r.hold(e.owner.Addr); h != nil {
		h.count++
		h.sum ^= itemSum(e.it)
		h.oldest = min(h.oldest, e.seen)
		return
	}
	r.holds = append(r.holds, repHold{owner: e.owner.Addr, count: 1, sum: itemSum(e.it), oldest: e.seen})
}

// repDel drops one replica, if held, from the set and its owner's aggregate.
func (p *Peer) repDel(did idspace.ID) {
	if p.repl == nil {
		return
	}
	if e, ok := p.repl.reps.del(did); ok {
		p.holdDrop(e)
	}
}

// holdDrop takes a replica that left the set out of its owner's aggregate.
func (p *Peer) holdDrop(e repEntry) {
	r := p.repl
	h := r.hold(e.owner.Addr)
	h.count--
	h.sum ^= itemSum(e.it)
	if h.count == 0 {
		*h = r.holds[len(r.holds)-1]
		r.holds = r.holds[:len(r.holds)-1]
	}
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
	r := p.rs()
	cur, ok := r.owned.get(it.DID)
	if ok && cur == it {
		return
	}
	if ok {
		r.ownedSum ^= itemSum(cur)
	}
	r.owned.put(it)
	r.ownedSum ^= itemSum(it)
	r.ownedAdded = true
	r.pending = append(r.pending, it.DID)
}

// takePending returns the items of from that were queued since the last
// push or announce, in DID order, and releases the queue.
func (p *Peer) takePending(from didSet[Item]) []Item {
	r := p.repl
	if len(r.pending) == 0 {
		return nil
	}
	// An item stored twice within a tick is queued twice; send it once.
	slices.Sort(r.pending)
	dids := slices.Compact(r.pending)
	r.pending = nil
	items := make([]Item, 0, len(dids))
	for _, did := range dids {
		if it, ok := from.get(did); ok {
			items = append(items, it)
		}
	}
	return items
}

// replicaSucc returns the next hop of the replica chain: the ring successor,
// detouring via succ2 when the successor is suspected dead (same rule as
// segment routing). NilRef when there is nowhere to push.
func (p *Peer) replicaSucc() Ref {
	t := p.t
	if t == nil {
		return NilRef
	}
	next := p.detour(t, t.succ)
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
	r := p.repl
	if r == nil {
		if p.data.len() == 0 {
			return // nothing to fold, nothing owned, no round in flight
		}
		r = p.rs()
	}
	// Fold in-segment data into owned: covers promotion, crash takeover and
	// direct t-peer placement without extra hooks (value-compare in ownedAdd
	// keeps this from perpetually re-queueing). Only a put into data, a
	// removal from owned or a moved segment can leave something to fold.
	if key := p.segKey(); r.foldDirty || key != r.folded {
		r.foldDirty = false
		r.folded = key
		for _, it := range p.data.all() {
			if p.inLocalSegment(it.DID) {
				p.ownedAdd(it)
			}
		}
	}
	// Evaluate the previous round: a wrap (our own push came back around the
	// ring) means the ring is smaller than k and every live t-peer holds the
	// set; otherwise count distinct ackers against k−1.
	if r.round != 0 {
		if r.wrapped {
			r.deficit = 0
		} else {
			r.deficit = max(p.sys.Cfg.ReplicationK-1-len(r.acks), 0)
		}
		if r.digest && r.deficit > 0 {
			p.sys.stats.DigestMismatches++
		}
		r.round = 0
		r.wrapped = false
		r.acks = r.acks[:0]
	}
	succ := p.replicaSucc()
	if !succ.Valid() || r.owned.len() == 0 {
		r.deficit = 0
		r.succ = runtime.None
		r.pending = nil
		return
	}
	succChanged := succ.Addr != r.succ
	r.succ = succ.Addr
	r.ticks++
	full := r.dirty || r.deficit > 0 || succChanged
	digest := !full && r.ticks >= repPushEvery
	delta := p.takePending(r.owned)
	if !full && !digest && len(delta) == 0 {
		return
	}
	r.round = p.sys.newTag()
	r.digest = digest
	if full {
		r.dirty = false
		r.ticks = 0
		p.sys.stats.ReplicaFullPushes++
		p.pushReplicas(succ, r.round, true, slices.Clone(r.owned.all()))
		return
	}
	if len(delta) > 0 {
		// With a digest right behind it the delta goes untracked: the
		// digest only matches at a holder the delta reached, so its ack
		// covers both, and a shared round would let the delta's ack hide a
		// digest mismatch.
		round := r.round
		if digest {
			round = 0
		}
		p.pushReplicas(succ, round, false, delta)
	}
	if digest {
		// Sent on every periodic tick, pending delta or not: replicas age
		// out at repExpiry unless a digest (or a full push) refreshes them.
		r.ticks = 0
		p.sys.stats.ReplicaDigests++
		p.send(succ.Addr, replicaDigest{
			Owner: p.Ref(),
			Round: r.round,
			TTL:   p.sys.Cfg.ReplicationK - 1,
			Count: r.owned.len(),
			Sum:   r.ownedSum,
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
	if p.data.len() == 0 || !p.tpeer.Valid() || p.tpeer.Addr == p.Addr {
		return
	}
	r := p.rs()
	r.annTicks++
	var items []Item
	if p.tpeer.Addr != r.annTo || r.annTicks >= announceFullEvery {
		r.annTo = p.tpeer.Addr
		r.annTicks = 0
		r.pending = nil
		items = slices.Clone(p.data.all())
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
		if r := p.repl; r != nil && m.Round != 0 && m.Round == r.round {
			r.wrapped = true
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
			if !p.data.has(it.DID) {
				p.storeLocal(it)
			}
			p.ownedAdd(it)
			continue
		}
		p.repPut(repEntry{it: it, owner: m.Owner, seen: now})
	}
	if m.Full {
		// The batch is the owner's whole set, so anything else held for it
		// (its segment shrank, a replicaDrop was lost) is no longer its
		// replica. Forward it home like an expired one instead of waiting
		// out repExpiry — until it is gone every digest would mismatch.
		// There are no tombstones, so dropping it silently is not safe.
		// Every entry the batch named was stamped with now just above.
		var stale []Item
		for _, e := range p.reps().all() {
			if e.owner.Addr == m.Owner.Addr && p.repl.seen(e) != now {
				stale = append(stale, e.it)
			}
		}
		for _, it := range stale {
			p.repDel(it.DID)
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
		if r := p.repl; r != nil && m.Round != 0 && m.Round == r.round {
			r.wrapped = true
		}
		return
	}
	if p.Role != TPeer {
		return
	}
	h := p.repl.hold(m.Owner.Addr)
	if h == nil || h.count != m.Count || h.sum != m.Sum {
		return // an owner sends no digest of an empty set
	}
	h.stamp = p.sys.rt.Now()
	h.oldest = h.stamp
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
	r := p.repl
	if r == nil || m.Round == 0 || m.Round != r.round {
		return
	}
	if !slices.Contains(r.acks, from) {
		r.acks = append(r.acks, from)
	}
}

// handleReplicaDrop retires replicas of deleted items along the chain.
func (p *Peer) handleReplicaDrop(from runtime.Addr, m replicaDrop) {
	if !p.replicationOn() || m.Owner.Addr == p.Addr {
		return
	}
	for _, did := range m.DIDs {
		p.repDel(did)
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
	t := p.t
	if !p.replicationOn() || t == nil {
		return Item{}, false
	}
	e, ok := p.reps().get(did)
	if !ok {
		return Item{}, false
	}
	next := p.nextHop(t, did)
	if !t.suspected(e.owner.Addr) && next.Valid() && !t.suspected(next.Addr) {
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
// dead or silent past expiry. Like the data scan, each scan runs only when
// the last one can be out of date: owned after a put or a moved segment,
// reps after a put, a moved segment, a raised suspicion or once some
// owner's oldest replica may have expired.
func (p *Peer) sweepReplicas(moved []Item, segMoved bool) []Item {
	r := p.repl
	if r == nil {
		return moved
	}
	if r.ownedAdded || segMoved {
		r.ownedAdded = false
		if lo, hi, ok := p.segKey().foreign(); ok {
			moved = mergeItems(moved, p.ownedCut(lo, hi))
		}
	}
	now, expiry := p.sys.rt.Now(), p.repExpiry()
	if r.reps.len() == 0 || !r.repsDirty && !segMoved && !r.expiring(now, expiry) {
		return moved
	}
	r.repsDirty = false
	for i := range r.holds {
		r.holds[i].oldest = math.MaxInt64
	}
	var promote, orphaned []Item
	for _, e := range r.reps.all() {
		h := r.hold(e.owner.Addr)
		seen := max(e.seen, h.stamp)
		switch {
		case p.Role == TPeer && p.inLocalSegment(e.it.DID):
			promote = append(promote, e.it)
		case now-seen >= expiry,
			p.t != nil && p.t.suspected(e.owner.Addr):
			// Forward home immediately on owner suspicion instead of waiting
			// out the expiry: shortens the unavailability window after an
			// owner crash. A false positive is an idempotent re-install.
			orphaned = append(orphaned, e.it)
		default:
			h.oldest = min(h.oldest, seen)
		}
	}
	for _, it := range promote {
		p.repDel(it.DID)
		if !p.data.has(it.DID) {
			p.storeLocal(it)
		}
		p.ownedAdd(it)
		p.sys.stats.ReplicaPromotions++
	}
	for _, it := range orphaned {
		p.repDel(it.DID)
	}
	return mergeItems(moved, orphaned)
}

// transferOwned hands the in-range slice of the owned set to a joining
// predecessor along with the DID-sorted data items handleLoadTransfer
// already cut (spread placement can leave the owner holding an
// authoritative copy whose bytes live on an s-peer, and the joiner must
// become able to serve it).
func (p *Peer) transferOwned(m loadTransferReq, moved []Item) []Item {
	if !p.replicationOn() || p.owned().len() == 0 || m.Lo == m.Hi {
		return moved
	}
	return mergeItems(moved, p.ownedCut(m.Lo, m.Hi))
}

// withOwned merges the owned set into a DID-sorted leave dump of the data
// set, so authoritative copies of spread items survive a graceful leave.
func (p *Peer) withOwned(items []Item) []Item {
	if !p.replicationOn() {
		return items
	}
	return mergeItems(items, p.owned().all())
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
	_, existed := p.data.del(did)
	if p.owned().has(did) {
		p.ownedDel(did)
		existed = true
	}
	p.repDel(did)
	if t := p.t; p.sys.Cfg.TrackerMode && t != nil {
		if _, ok := t.index[did]; ok {
			delete(t.index, did)
			existed = true
		}
	}
	p.dropCached(did)
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
	if succ := p.Successor(); p.sys.Cfg.Caching && succ.Valid() && succ.Addr != p.Addr {
		p.send(succ.Addr, deleteRing{DID: did, Origin: p.Ref(), TTL: 1 << 20})
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
	if _, ok := p.data.del(m.DID); ok {
		if p.sys.Cfg.TrackerMode && p.Role == SPeer && p.tpeer.Valid() {
			p.send(p.tpeer.Addr, indexRemove{DID: m.DID, Holder: p.Ref()})
		}
	}
	p.dropCached(m.DID)
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
	p.dropCached(m.DID)
	if len(p.children) > 0 {
		var flood any = deleteFlood{DID: m.DID, TTL: 1 << 20}
		for i := range p.children {
			p.send(p.children[i].Ref.Addr, flood)
		}
	}
	if t := p.t; t != nil && t.succ.Valid() && t.succ.Addr != p.Addr && t.succ.Addr != m.Origin.Addr {
		m.TTL--
		p.send(t.succ.Addr, m)
	}
}
