package core

import (
	"fmt"
	"sort"

	"repro/internal/idspace"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// Peer is one participant of the hybrid system. Its state is split by role:
// what every member needs (tree links, failure detection, data) lives here,
// the ring a t-peer runs lives in t, and the state of a join in flight or of
// the enhancements lives in structs that exist only while used. The paper's
// substitution mechanism converts an s-peer into a t-peer in place: it takes
// a tState then (takeTRole).
type Peer struct {
	ID       idspace.ID
	Addr     runtime.Addr
	Host     int
	Capacity float64

	sys *System

	// t is the t-network state: set exactly while the peer holds the
	// t-role, nil on every s-peer (and on a peer the server has not placed
	// yet). Code that reads ring state holds it.
	t *tState

	// --- s-network state ---
	// tpeer is the root of this peer's s-network (self for t-peers).
	tpeer Ref
	// segLo is the lower bound of the s-network's id segment (the
	// t-peer's predecessor id), cached from sJoinAck and HELLO piggyback.
	segLo idspace.ID
	// cp is the connect point (tree parent); invalid for t-peers.
	cp Ref
	// children are the downstream tree neighbors, kept sorted by address so
	// iteration order is deterministic without per-call sorting. The tree
	// degree is bounded by δ (plus one inheritance), so a sorted slice beats
	// the two maps it replaced on both lookup cost and per-peer footprint.
	children []childLink

	// --- failure detection ---
	// hb is the hello tick, allocated by the first watch or when
	// maintenance starts.
	hb *heartbeat
	// nbrs is the flat failure-detection table: one entry per neighbor this
	// peer has ever monitored, merging the watchdog deadline and the ack
	// suppress clock. An entry whose deadline is 0 is not being watched but
	// keeps its suppress history (the previous map never forgot it either).
	nbrs []nbrWatch

	// --- data ---
	// data is the peer's database, sorted by DID.
	data didSet[Item]
	// served counts every lookup this peer answered, with or without the
	// caching enhancement.
	served uint64
	// enh is the caching and bypass state (§5.4, future-work caching),
	// allocated on first use.
	enh *enhState

	// swept is the segment the last rehome sweep judged the data against;
	// dataAdded (beside the join flags, which share its word) marks an item
	// put into data since then. With neither moved no stored item can be
	// foreign, and the sweep skips the scan.
	swept segKey

	// --- replication (ReplicationK > 1) ---
	// repl is allocated on the first replication write, so it stays nil on
	// every peer of a k = 1 system.
	repl *replState

	// join is the join or rejoin through the server in flight: set from the
	// request until the peer is a member again (completeJoin).
	join *pendingJoin
	// joinEpoch numbers join attempts; handshake messages echo it so a
	// retried join cannot be completed by a stale earlier attempt.
	joinEpoch int32
	// cpLostTicks counts consecutive hello ticks a joined s-peer has spent
	// without a connect point; past a small grace it forces a rejoin
	// through the server (a wedged rejoin would otherwise strand the peer
	// silently forever).
	cpLostTicks uint8
	// joined flips once the peer is a full member; retries and duplicate
	// handshake suppression key off it (the join's done may legitimately be
	// nil).
	joined bool
	// insertPending is true from sending tJoinToSucc until succ confirms
	// the ring insertion; it gates the re-send loop (armInsertRetry).
	insertPending bool
	// deferLeave marks a leave requested while a join triangle was in
	// flight; it runs once the triangle closes (§3.3: a joining pre
	// accepts no leave requests, including its own).
	deferLeave bool
	dataAdded  bool // see swept
	// The role and liveness fill the flags' word with joining/leaving, the
	// §3.3 mutex variables.
	Role    Role
	alive   bool
	joining bool
	leaving bool
}

// tState is the ring state of a t-peer (§3.3, §4.1): ring pointers, finger
// table, the joining mutex's queue and guards, and the tracker index. At
// p_s close to 1 almost every peer is an s-peer, which never reads any of
// it, so it is allocated only when a peer takes the t-role.
type tState struct {
	pred, succ Ref
	// succ2 is the successor's successor, learned from ring stabilization
	// answers. It is a routing fallback only — never a ring pointer: when
	// the successor is suspected dead and its repair has not landed yet,
	// segment routing detours via succ2 instead of forwarding into the
	// crash.
	succ2 Ref
	// suspect lists the neighbors whose watchdog expired but whose repair
	// is still pending; routing avoids them. Entries clear on any liveness
	// signal or once the pointer heals. Nil for the (common) peers that
	// never see a neighbor crash, and a handful long at most.
	suspect []runtime.Addr
	// fingers is the finger table with its refresh rounds in flight.
	fingers fingerTable
	// joinQueue serializes join requests that arrive while a triangle
	// holds the joining mutex.
	joinQueue []tJoinReq
	// index is the tracker-mode content index (TrackerMode only).
	index map[idspace.ID]Ref

	fingerTicker *runtime.Ticker
	// triJoiner/triEpoch identify the join triangle this peer currently
	// anchors as pre, so a tJoinCancel from the joiner can release the
	// joining mutex without racing a different (newer) triangle.
	triJoiner runtime.Addr
	triEpoch  int32
	// mutexEpoch numbers the joining mutex's guards (armMutexGuard).
	mutexEpoch uint32
}

// takeTRole gives the peer its ring state, keeping any it already holds. A
// t-join (handleServerJoinResp) and the two promotions (handlePromote,
// handleReplaceResp) are its only callers.
func (p *Peer) takeTRole() *tState {
	p.Role = TPeer
	if p.t == nil {
		p.t = &tState{pred: NilRef, succ: NilRef, succ2: NilRef}
	}
	return p.t
}

// dropTRole makes the peer an s-peer: a retried join the server placed in an
// s-network, or an sJoinAck that lands after a promotion. The ring state
// goes with the role, finger refresh included.
func (p *Peer) dropTRole() {
	p.Role = SPeer
	if p.t != nil {
		if p.t.fingerTicker != nil {
			p.t.fingerTicker.Stop()
		}
		p.t = nil
	}
}

// pendingJoin is a join through the server in flight.
type pendingJoin struct {
	start runtime.Time
	done  func(*Peer, JoinStats)
	timer runtime.Handle
	// req is the original server request, kept so join retries preserve
	// the caller's role pin instead of letting the server re-decide.
	req serverJoinReq
}

// enhState holds the enhancements' soft state: surrogate copies of hot
// items with their serve counts (future-work caching) and the bypass links
// (§5.4). Every table is allocated on its first write.
type enhState struct {
	cache  idleTable[idspace.ID, Item]
	serves map[idspace.ID]*serveStat
	bypass idleTable[runtime.Addr, bypassLink]
}

// enhance returns the enhancement state, allocating it on first use.
func (p *Peer) enhance() *enhState {
	if p.enh == nil {
		p.enh = new(enhState)
	}
	return p.enh
}

// childLink is one s-tree child edge plus the child's latest subtree-size
// report (0 = not reported yet, counted as a bare leaf). Summing the reports
// gives this peer's own subtree size, which goes up the tree whenever it
// changes and from a t-peer to the server as the size of its s-network.
type childLink struct {
	Ref     Ref
	Subtree int
}

// nbrWatch is one monitored neighbor: the failure-detection deadline plus
// the ack suppress clock (§3.2.2). due is when the neighbor is presumed
// crashed unless a HELLO or ack moves it, and 0 while the neighbor is not
// being watched; seq orders the deadlines that fall in one µs by when they
// were set. The suppress fields outlive the watch, matching the old lastAck
// map which was never pruned.
type nbrWatch struct {
	addr    runtime.Addr
	due     runtime.Time
	lastAck runtime.Time
	acked   bool
	seq     uint32
}

// op is an in-flight store, lookup or delete; System.ops keys it by qid.
type op struct {
	peer  *Peer  // the origin
	kind  string // "store", "lookup" or "delete"
	key   string
	did   idspace.ID
	start runtime.Time
	ttl   int
	// contacts counts the peers contacted on the op's behalf (connum).
	contacts int
	// localFlood records that a remote lookup also flooded the local
	// s-network in parallel (§3.1). A local flood reports no miss, so the
	// ring's miss does not fail such a lookup: it ends on a hit or its
	// timer, and a spread or cached copy can still win the race.
	localFlood bool
	// probes counts outstanding ring probes (LookupAlpha > 1): a definitive
	// ring miss only counts once every probe has reported.
	probes int
	done   func(OpResult)
	timer  runtime.Handle
}

// OpResult reports the outcome of a store or lookup.
type OpResult struct {
	OK    bool
	Key   string
	Value string
	// Hops is the overlay hop count experienced by the request path that
	// produced the result.
	Hops int
	// Latency is the simulated end-to-end time.
	Latency runtime.Time
	// Contacts is the number of peers the operation touched (connum).
	Contacts int
	// Holder is where the item lives (valid on success).
	Holder Ref
}

// Alive reports whether the peer participates in the system.
func (p *Peer) Alive() bool { return p.alive }

// Ref returns the peer's own reference.
func (p *Peer) Ref() Ref { return Ref{ID: p.ID, Addr: p.Addr} }

// ConnectPoint returns the peer's tree parent (invalid for t-peers).
func (p *Peer) ConnectPoint() Ref { return p.cp }

// Degree returns the peer's s-network degree: children plus the parent link
// for s-peers. This is the quantity the δ constraint bounds.
func (p *Peer) Degree() int {
	d := len(p.children)
	if p.Role == SPeer && p.cp.Valid() {
		d++
	}
	return d
}

// Children returns the tree children sorted by address. The backing table is
// kept sorted, so this is a straight copy; hot paths iterate p.children
// directly instead.
func (p *Peer) Children() []Ref {
	out := make([]Ref, len(p.children))
	for i := range p.children {
		out[i] = p.children[i].Ref
	}
	return out
}

// childIndex returns the position of the child with the given address, or -1.
func (p *Peer) childIndex(a runtime.Addr) int {
	i := sort.Search(len(p.children), func(i int) bool { return p.children[i].Ref.Addr >= a })
	if i < len(p.children) && p.children[i].Ref.Addr == a {
		return i
	}
	return -1
}

// addChild inserts (or refreshes) a child edge, keeping the table address-
// sorted.
func (p *Peer) addChild(r Ref) {
	i := sort.Search(len(p.children), func(i int) bool { return p.children[i].Ref.Addr >= r.Addr })
	if i < len(p.children) && p.children[i].Ref.Addr == r.Addr {
		p.children[i].Ref = r
		return
	}
	p.children = append(p.children, childLink{})
	copy(p.children[i+1:], p.children[i:])
	p.children[i] = childLink{Ref: r}
}

// removeChild drops a child edge (and its subtree report), reporting whether
// the address was a child, and reports the smaller count on.
func (p *Peer) removeChild(a runtime.Addr) bool {
	i := p.childIndex(a)
	if i < 0 {
		return false
	}
	p.children = append(p.children[:i], p.children[i+1:]...)
	p.reportSize(1)
	return true
}

// nbrIndex returns the position of the failure-detection entry for the given
// address, or -1. The table is small (tree degree plus ring neighbors), so a
// linear scan beats a map.
func (p *Peer) nbrIndex(a runtime.Addr) int {
	for i := range p.nbrs {
		if p.nbrs[i].addr == a {
			return i
		}
	}
	return -1
}

// watching reports whether the address is under an armed failure detector.
func (p *Peer) watching(a runtime.Addr) bool {
	i := p.nbrIndex(a)
	return i >= 0 && p.nbrs[i].due != 0
}

// NumItems returns the number of locally stored items.
func (p *Peer) NumItems() int { return p.data.len() }

// Successor returns the ring successor, NilRef off the t-role.
func (p *Peer) Successor() Ref {
	if p.t == nil {
		return NilRef
	}
	return p.t.succ
}

// Predecessor returns the ring predecessor, NilRef off the t-role.
func (p *Peer) Predecessor() Ref {
	if p.t == nil {
		return NilRef
	}
	return p.t.pred
}

// Nominal wire sizes: every control message is messageBytes, and a message
// carrying data items adds dataBytes per item.
const (
	messageBytes = 128
	dataBytes    = 512
)

// send transmits a control-sized message.
func (p *Peer) send(to runtime.Addr, msg any) {
	p.sys.rt.Send(p.Addr, to, messageBytes, msg)
}

// sendData transmits a message carrying n data items.
func (p *Peer) sendData(to runtime.Addr, n int, msg any) {
	size := messageBytes + n*dataBytes
	p.sys.rt.Send(p.Addr, to, size, msg)
}

// recv dispatches an incoming message to its protocol handler.
func (p *Peer) recv(from runtime.Addr, msg any) {
	if !p.alive {
		return
	}
	switch m := msg.(type) {
	// Server dialogue.
	case serverJoinResp:
		p.handleServerJoinResp(m)
	case replaceResp:
		p.handleReplaceResp(m)

	// T-network membership.
	case tJoinReq:
		p.handleTJoinReq(m)
	case tJoinSetup:
		p.handleTJoinSetup(from, m)
	case tJoinToSucc:
		p.handleTJoinToSucc(m)
	case tJoinDone:
		p.handleTJoinDone(m)
	case tJoinConfirm:
		p.joining = false
		p.insertPending = false
		if p.t != nil {
			p.drainJoinQueue(p.t)
		}
	case tJoinCancel:
		p.handleTJoinCancel(m)
	case loadTransferReq:
		p.handleLoadTransfer(from, m)
	case itemsMsg:
		p.handleItems(m)
	case tLeaveToPred:
		p.handleTLeaveToPred(from, m)
	case tLeaveToSucc:
		p.handleTLeaveToSucc(m)
	case tLeaveDone:
		if p.leaving {
			p.finishEmptyLeave()
		}
	case promoteMsg:
		p.handlePromote(m)
	case newParentMsg:
		p.handleNewParent(m)
	case substituteMsg:
		p.handleSubstitute(m)
	case pointerUpdate:
		p.handlePointerUpdate(m)
	case ringRepair:
		p.handleRingRepair(m)
	case findSuccReq:
		p.handleFindSucc(m)
	case findSuccResp:
		p.handleFindSuccResp(m)

	// S-network membership.
	case sJoinReq:
		p.handleSJoinReq(m)
	case sJoinAck:
		p.handleSJoinAck(m)
	case sLeaveMsg:
		p.handleSLeave(from)
	case sizeReport:
		if ci := p.childIndex(from); ci >= 0 {
			p.noteSubtree(ci, m.Size, m.Hops+1)
		}

	// Failure detection.
	case helloMsg:
		p.handleHello(from, m)
	case ackMsg:
		p.refreshWatchdog(from)

	// Data operations.
	case storeReq:
		p.handleStoreReq(from, m)
	case spreadReq:
		p.handleSpreadReq(m)
	case storeAck:
		p.handleStoreAck(m)
	case lookupReq:
		p.handleLookupReq(from, m)
	case floodReq:
		p.handleFlood(from, m)
	case foundMsg:
		p.handleFound(m)
	case notFoundMsg:
		p.handleNotFound(m)
	case indexAdd:
		p.handleIndexAdd(m)
	case indexRemove:
		p.handleIndexRemove(m)
	case bypassAdd:
		p.handleBypassAdd(m)
	case cacheAdd:
		p.handleCacheAdd(m)
	case ringStabQ:
		p.send(from, ringStabA{Pred: p.Predecessor(), Succ: p.Successor()})
	case ringStabA:
		p.handleRingStabA(from, m)
	case ringNotify:
		p.handleRingNotify(m)
	case fetchReq:
		p.handleFetch(m)

	// Replication and delete (ReplicationK).
	case replicaPut:
		p.handleReplicaPut(from, m)
	case replicaAck:
		p.handleReplicaAck(from, m)
	case replicaDrop:
		p.handleReplicaDrop(from, m)
	case replicaDigest:
		p.handleReplicaDigest(m)
	case ownerAnnounce:
		p.handleOwnerAnnounce(m)
	case deleteReq:
		p.handleDeleteReq(from, m)
	case deleteAck:
		p.handleDeleteAck(m)
	case deleteFlood:
		p.handleDeleteFlood(from, m)
	case deleteRing:
		p.handleDeleteRing(m)

	default:
		panic(fmt.Sprintf("core: peer %d received unknown message %T", p.Addr, msg))
	}
}

// neighbors returns every s-network tree neighbor (parent first, then
// children in address order). Cold paths only; the flood/hello/lookup hot
// paths iterate the parent pointer and child table in place via
// forEachNeighbor instead of materializing a slice per event.
func (p *Peer) neighbors() []Ref {
	out := make([]Ref, 0, len(p.children)+1)
	if p.Role == SPeer && p.cp.Valid() {
		out = append(out, p.cp)
	}
	for i := range p.children {
		out = append(out, p.children[i].Ref)
	}
	return out
}

// forEachNeighbor visits every tree neighbor in the same order neighbors
// returns them, without allocating. The callback must not mutate the child
// table.
func (p *Peer) forEachNeighbor(fn func(Ref)) {
	if p.Role == SPeer && p.cp.Valid() {
		fn(p.cp)
	}
	for i := range p.children {
		fn(p.children[i].Ref)
	}
}

// numNeighbors counts tree neighbors without materializing them.
func (p *Peer) numNeighbors() int {
	n := len(p.children)
	if p.Role == SPeer && p.cp.Valid() {
		n++
	}
	return n
}

// --- HELLO / failure detection ----------------------------------------------

// startMaintenance begins the peer's periodic protocols once it is a full
// member: HELLO heartbeats for everyone, finger refresh for t-peers.
func (p *Peer) startMaintenance() {
	p.startHello()
	if p.t != nil {
		p.startFingerTicker(p.t)
	}
}

// startFingerTicker starts the t-network finger refresh once: at join, and
// when an s-peer is promoted into the ring.
func (p *Peer) startFingerTicker(t *tState) {
	if t.fingerTicker == nil {
		t.fingerTicker = runtime.NewTicker(p.sys.rt, p.sys.Cfg.FingerRefreshEvery, p.refreshFingers)
		t.fingerTicker.Start()
	}
}

// broadcastHello sends the periodic heartbeat to all monitored neighbors.
// T-peers include their ring neighbors so an empty-s-network crash is still
// detected. The heartbeat piggybacks the current s-network metadata so
// segment boundaries propagate down the tree.
func (p *Peer) broadcastHello() {
	if !p.alive {
		return
	}
	// Every child must stay under a failure detector: ring-pointer churn can
	// unwatch an address that still sits in the child table (the watchdog
	// entry is shared per address), which would leave a stale child edge
	// unreapable. Re-arm; a real child's hellos refresh it, a stale one
	// expires into the child-crash cleanup.
	for i := range p.children {
		if a := p.children[i].Ref.Addr; !p.watching(a) {
			p.watch(a)
		}
	}
	// Self-heal a wedged rejoin: an s-peer can lose its connect point and
	// have every recovery message lost (e.g. a leaving t-peer's takeover
	// notice), leaving it silent — no neighbors, so no hellos, so nobody
	// ever detects it. After a grace of three ticks with no connect point,
	// go back to the server.
	if p.Role == SPeer && p.joined && !p.leaving && !p.cp.Valid() {
		p.cpLostTicks++
		if p.cpLostTicks >= 3 {
			p.cpLostTicks = 0
			p.rejoinViaServer()
			return
		}
	} else {
		p.cpLostTicks = 0
	}
	// Rehoming is otherwise edge-triggered (segment-change events), so a
	// load-transfer shipment lost by the network would strand a foreign
	// item forever. Sweep every tick as the backstop; it scans nothing
	// unless an item arrived or the segment moved since the last sweep.
	if p.joined && !p.leaving && (p.Role == TPeer || p.cp.Valid()) {
		p.rehomeForeignItems()
	}
	// Replication maintenance rides the hello tick: owners push what changed
	// in the owned set down the successor chain, s-peers report what they
	// stored in the segment up.
	if p.sys.Cfg.ReplicationK > 1 && p.joined && !p.leaving {
		if p.Role == TPeer {
			p.syncReplicas()
		} else if p.cp.Valid() {
			p.announceOwned()
		}
	}
	if p.sys.afterTick != nil {
		p.sys.afterTick(p)
	}
	// Box the heartbeat into an interface value once per tick, not once per
	// neighbor: every peer runs this forever, so per-send boxing dominates
	// steady-state allocation.
	var hello any = helloMsg{Root: p.tpeer, SegLo: p.segLo, Subtree: p.subtreeSize()}
	p.forEachNeighbor(func(nb Ref) {
		p.send(nb.Addr, hello)
		p.sys.stats.HellosSent++
	})
	if t := p.t; t != nil {
		if t.pred.Valid() && t.pred.Addr != p.Addr {
			p.send(t.pred.Addr, hello)
			p.sys.stats.HellosSent++
		}
		if t.succ.Valid() && t.succ.Addr != p.Addr && t.succ.Addr != t.pred.Addr {
			p.send(t.succ.Addr, hello)
			p.sys.stats.HellosSent++
		}
		// The size sync is also the registry keep-alive, so it goes out on
		// every tick, changed or not.
		p.reportSize(0)
	}
}

// reportSize sends this peer's subtree count to its keeper: a t-peer to the
// server, as its s-network's size, an attached s-peer to its connect point.
// hops counts the levels a change has climbed; past routeHopLimit it stops,
// as a connect-point cycle would pass a growing count round for ever.
func (p *Peer) reportSize(hops int) {
	if !p.joined || p.leaving || hops > routeHopLimit {
		return
	}
	if p.t != nil {
		p.send(p.sys.serverAddr, sSizeSync{Self: p.Ref(), Size: p.subtreeSize() - 1})
	} else if p.cp.Valid() {
		p.send(p.cp.Addr, sizeReport{Size: p.subtreeSize(), Hops: hops})
	}
}

// noteSubtree records child ci's subtree report, reporting this peer's own
// count on if that moved it (an unreported child counts as a leaf).
func (p *Peer) noteSubtree(ci, size, hops int) {
	if c := &p.children[ci]; size > 0 && size != max(c.Subtree, 1) {
		c.Subtree = size
		p.reportSize(hops)
	}
}

// subtreeSize returns the number of peers in this peer's subtree, itself
// included, from the latest per-child reports (a child that has not
// reported yet counts as a bare leaf).
func (p *Peer) subtreeSize() int {
	n := 1
	for i := range p.children {
		if r := p.children[i].Subtree; r > 0 {
			n += r
		} else {
			n++
		}
	}
	return n
}

// handleHello refreshes the sender's watchdog and, for heartbeats arriving
// from the tree parent, adopts the piggybacked s-network metadata: the root
// reference, the segment lower bound and the s-network's shared p_id.
func (p *Peer) handleHello(from runtime.Addr, m helloMsg) {
	p.refreshWatchdog(from)
	ci := p.childIndex(from)
	switch {
	case ci >= 0 && m.Root.Valid() && m.Root.Addr == from:
		// The listed child announces itself as a root: a retried join
		// re-assigned it as a t-peer, so the child edge is stale. (Its
		// ring hellos would otherwise keep the stale edge's subtree
		// count fresh forever.) The watchdog entry stays — it may be
		// doing ring-neighbor duty for the same address.
		p.removeChild(from)
	case ci >= 0:
		p.noteSubtree(ci, m.Subtree, 1)
	case from != p.cp.Addr && (p.cp.Valid() || p.t != nil && m.Root.Addr != from):
		// The sender lists a tree edge this peer lacks (its ack was lost or
		// ignored): release it. A t-peer's ring neighbors hello it too.
		p.send(from, sLeaveMsg{})
		return
	}
	if p.Role != SPeer || p.cp.Addr != from || !m.Root.Valid() {
		return
	}
	rootChanged := p.tpeer.Addr != m.Root.Addr
	segChanged := p.segLo != m.SegLo
	p.tpeer = m.Root
	p.ID = m.Root.ID
	p.segLo = m.SegLo
	if rootChanged && p.sys.Cfg.TrackerMode && p.data.len() > 0 {
		// A substituted or replaced tracker lost the old index; re-announce.
		p.announceItems(p.data.all())
	}
	if rootChanged || segChanged {
		// The segment under our data moved (rejoin into a different
		// s-network, ring membership change): forward anything we no
		// longer own to its owning segment.
		p.rehomeForeignItems()
	}
}

// watch (re)arms the failure detector for a neighbor: its deadline is one
// HelloTimeout from now. Only a peer whose hello tick has not started
// registers the deadline with an expiry event here; otherwise the tick
// does when the deadline comes within one HelloEvery.
func (p *Peer) watch(nb runtime.Addr) {
	if nb == p.Addr || nb == runtime.None {
		return
	}
	i := p.nbrIndex(nb)
	if i < 0 {
		p.nbrs = append(p.nbrs, nbrWatch{addr: nb})
		i = len(p.nbrs) - 1
	}
	if due := p.setDue(i); due <= p.beat().horizon {
		p.sys.register(p, due)
	}
}

// unwatch stops monitoring a neighbor. The table entry stays so the ack
// suppress history survives a watch/unwatch cycle, exactly like the old
// never-pruned lastAck map.
func (p *Peer) unwatch(nb runtime.Addr) {
	if i := p.nbrIndex(nb); i >= 0 {
		p.nbrs[i].due = 0
	}
}

// refreshWatchdog resets the failure detector for a neighbor on any
// liveness signal (HELLO or ack). If the old deadline was registered with an
// expiry event, that event finds it moved and skips it.
func (p *Peer) refreshWatchdog(from runtime.Addr) {
	if i := p.nbrIndex(from); i >= 0 && p.nbrs[i].due != 0 {
		p.setDue(i)
	}
	// Any liveness signal clears the routing suspicion (a partition healing
	// looks exactly like this).
	if p.t != nil {
		p.t.unsuspect(from)
	}
}

// markSuspect flags a ring neighbor as suspected dead for routing purposes.
func (p *Peer) markSuspect(t *tState, nb runtime.Addr) {
	if !t.suspected(nb) {
		t.suspect = append(t.suspect, nb)
	}
	if p.repl != nil {
		p.repl.repsDirty = true // the replica sweep orphans what nb owns
	}
}

// maybeAck responds to a data query with an acknowledgment unless the
// suppress timer says one was sent recently (§3.2.2). Acks double as
// liveness signals, letting failure detection accelerate under query load.
func (p *Peer) maybeAck(to runtime.Addr) {
	i := p.nbrIndex(to)
	if i < 0 || p.nbrs[i].due == 0 {
		return // acks only matter between tree neighbors
	}
	now := p.sys.rt.Now()
	if p.nbrs[i].acked && now-p.nbrs[i].lastAck < p.sys.Cfg.SuppressTimeout {
		p.sys.stats.AcksSuppressed++
		return
	}
	p.nbrs[i].acked = true
	p.nbrs[i].lastAck = now
	p.send(to, ackMsg{})
	p.sys.stats.AcksSent++
}

// stop halts all timers and detaches the peer from the network.
func (p *Peer) stop() {
	p.alive = false
	if p.hb != nil {
		p.sys.rt.Unschedule(p.hb.tick)
		p.withdrawDeadlines()
	}
	if p.t != nil && p.t.fingerTicker != nil {
		p.t.fingerTicker.Stop()
	}
	p.nbrs = nil
	if p.join != nil {
		p.sys.rt.Unschedule(p.join.timer)
	}
	// Fail in-flight operations instead of silently dropping them: a live
	// client blocked in LookupSync/StoreSync on this peer must get its
	// callback, or it waits out the full Await timeout. The DES harnesses
	// never crash a peer with its own operation pending (ops are issued
	// synchronously), so this is only observable under the live runtime.
	for _, qid := range p.sys.opsOf(p) {
		p.finishOp(qid, OpResult{OK: false})
	}
	if p.enh != nil {
		p.enh.cache.stopAll()
		p.enh.bypass.stopAll()
	}
	p.sys.rt.Detach(p.Addr)
	p.sys.removePeer(p.Addr)
}

// Crash removes the peer abruptly: no notifications, all stored data lost.
// Neighbors discover the failure through HELLO/ack timeouts.
func (p *Peer) Crash() {
	if !p.alive {
		return
	}
	p.sys.trace(obs.EvPeerCrash, 0, p.Addr, runtime.None, 0, p.Role.String())
	p.sys.stats.Crashes++
	p.stop()
}

// completeJoin finalizes membership and reports statistics.
func (p *Peer) completeJoin(hops int) {
	if p.joined {
		return
	}
	p.joined = true
	j := p.join
	p.join = nil
	p.sys.rt.Unschedule(j.timer)
	p.sys.trace(obs.EvPeerJoin, 0, p.Addr, runtime.None, hops, p.Role.String())
	p.startMaintenance()
	if j.done != nil {
		j.done(p, JoinStats{
			Role:    p.Role,
			Hops:    hops,
			Latency: p.sys.rt.Now() - j.start,
		})
	}
}
