package core

import (
	"repro/internal/idspace"
	"repro/internal/runtime"
)

// Ref names a remote peer by id and address.
type Ref struct {
	ID   idspace.ID
	Addr runtime.Addr
}

// NilRef is the null peer reference.
var NilRef = Ref{Addr: runtime.None}

// Valid reports whether the reference points at a peer.
func (r Ref) Valid() bool { return r.Addr != runtime.None }

// Item is a stored (key, value) pair together with its hashed id.
type Item struct {
	Key   string
	Value string
	DID   idspace.ID
}

// --- Server dialogue -------------------------------------------------------

// serverJoinReq is a new peer's first message: it asks the well-known server
// for a role, an id and an entry point into the system.
type serverJoinReq struct {
	Capacity float64
	// Coord is the peer's landmark coordinate (ordered landmark indices)
	// when topology awareness is on; nil otherwise.
	Coord string
	// ForceRole pins the role (-1 = let the server decide).
	ForceRole int8
}

// serverJoinResp carries the server's placement decision.
type serverJoinResp struct {
	Role Role
	// ID is the assigned p_id (t-peers only; s-peers copy their
	// t-peer's id on arrival).
	ID idspace.ID
	// Entry is where to send the join request: an arbitrary t-peer for
	// t-joins, the target s-network's t-peer for s-joins.
	Entry Ref
	// First marks the very first t-peer, which forms the ring alone.
	First bool
}

// replaceReq is sent to the server by an s-peer that detected its t-peer
// crashed; the server arbitrates a single replacement (§3.2.1).
type replaceReq struct {
	Crashed Ref // the dead t-peer
	Self    Ref // the reporting s-peer
}

// replaceResp tells the reporter the outcome of the arbitration.
type replaceResp struct {
	// Promote is true if the reporter was chosen as the new t-peer.
	Promote bool
	// NewT is the replacement t-peer (for losers to rejoin under).
	NewT Ref
	// Ring state handed to the chosen peer.
	ID         idspace.ID
	Pred, Succ Ref
}

// ringDeadReq reports a crashed t-peer with an empty s-network; the server
// patches the ring around it.
type ringDeadReq struct {
	Crashed Ref
	Self    Ref
}

// ringRepair is the server's targeted answer to a ringDeadReq: the reporter
// swaps whichever of its ring pointers still names the crashed peer for the
// registry's current neighbor.
type ringRepair struct {
	Crashed    Ref
	Pred, Succ Ref
}

// --- T-network membership --------------------------------------------------

// tJoinReq is routed along the ring (accelerated by fingers) until it
// reaches the predecessor-to-be of the joining peer. Epoch is the joiner's
// join-attempt counter: handshakes from an abandoned attempt are dropped.
type tJoinReq struct {
	Joiner Ref
	Epoch  int
	Hops   int
}

// tJoinSetup is the first edge of the join triangle (Fig. 2 left): pre sends
// the new peer its future neighbors.
type tJoinSetup struct {
	Pred, Succ Ref
	// NewID is set (with HasNewID) when pre resolved an id conflict with
	// the midpoint rule; the joiner must adopt it.
	NewID    idspace.ID
	HasNewID bool
	Epoch    int
	Hops     int
}

// tJoinToSucc is the second edge: the new peer introduces itself to succ.
type tJoinToSucc struct {
	Joiner Ref
}

// tJoinDone is the closing edge: succ tells pre the insertion is complete,
// and pre flips its successor pointer and unblocks its request queue.
type tJoinDone struct {
	Joiner Ref
}

// tJoinConfirm tells the joiner its successor has processed the insertion.
// Until it arrives the joiner keeps its own joining mutex set, so triangles
// it anchors as pre cannot overtake its own insertion at the shared
// successor.
type tJoinConfirm struct{}

// tJoinCancel is the joiner refusing a tJoinSetup: the triangle belongs to
// an abandoned join attempt, or the joiner is already inserted and its own
// triangle has fully closed. It releases pre's joining mutex immediately.
// Without it, retried and duplicated join requests (common under message
// faults) wedge pre in back-to-back JoinTimeout mutex-guard windows, and a
// wedged pre neither stabilizes nor serves queued joins — the retrying
// joiner and the mutex guard can phase-lock into a livelock.
type tJoinCancel struct {
	Joiner Ref
	Epoch  int
}

// loadTransferReq asks every peer of succ's s-network to ship the items the
// new t-peer now owns (Table 1, suc.loadtransfer).
type loadTransferReq struct {
	// Range (Lo, Hi]: items with d_id in this arc move to Target.
	Lo, Hi idspace.ID
	Target Ref
	// TTLs the broadcast through the tree.
	TTL int
}

// itemsMsg carries data items between peers (load transfer, load dump,
// placement forwarding).
type itemsMsg struct {
	Items []Item
}

// tLeaveToPred/tLeaveToSucc implement the leave triangle (Fig. 2 right) for
// a t-peer leaving with an empty s-network.
type tLeaveToPred struct {
	Leaver Ref
	Succ   Ref
}
type tLeaveToSucc struct {
	Leaver Ref
	Pred   Ref
}
type tLeaveDone struct{}

// promoteMsg transfers the t-role to an s-peer of the same s-network
// (substitution-on-leave, §3.2.1). The promoted peer takes over the ring
// pointers, finger table, stored data and the remaining direct children of
// the departing t-peer.
type promoteMsg struct {
	ID         idspace.ID
	Pred, Succ Ref
	Fingers    []Ref
	Items      []Item
	Children   []Ref
}

// newParentMsg re-parents a child onto the promoted peer.
type newParentMsg struct {
	Parent Ref
}

// substituteMsg circulates the ring after a substitution so every t-peer
// replaces the old address in its finger table ("other t-peers only need to
// substitute the leaving t-peer with the new t-peer in the finger table").
type substituteMsg struct {
	Old, New Ref
	Origin   runtime.Addr
}

// pointerUpdate patches a single ring pointer (used by the server after
// crash recovery and by substitution leaves). When IfCurrent is valid the
// update is conditional: it applies only to a pointer that still names that
// peer, so a repair raced by newer membership changes cannot clobber them.
type pointerUpdate struct {
	Pred, Succ Ref // invalid fields are left unchanged
	IfCurrent  Ref
}

// ringLocate asks the server for this t-peer's current ring neighbors; sent
// by a t-peer that lost a ring pointer (e.g. both triangle counterparties
// died mid-protocol). The server re-registers the peer if needed and answers
// with a pointerUpdate.
type ringLocate struct {
	Self Ref
}

// findSuccReq resolves the successor of Target on the t-network; used for
// finger maintenance. Fidx is the finger slot being refreshed; it rides the
// request and is echoed in the response so the issuer can match the answer
// against its open refresh rounds (fingerTable) instead of keeping one
// pending-op record per probe.
type findSuccReq struct {
	Target idspace.ID
	Origin runtime.Addr
	Tag    uint64
	Fidx   int
	Hops   int
}
type findSuccResp struct {
	Succ Ref
	Tag  uint64
	Fidx int
}

// --- S-network membership ---------------------------------------------------

// sJoinReq walks from the t-peer down a random branch until it reaches a
// peer with degree < δ (§3.2.2).
type sJoinReq struct {
	Joiner Ref
	Epoch  int
	Hops   int
}

// sJoinAck tells the joiner its connect point and its s-network's t-peer.
type sJoinAck struct {
	CP    Ref
	TPeer Ref
	ID    idspace.ID // s-peers adopt their t-peer's p_id
	Epoch int
	Hops  int
}

// sLeaveMsg notifies neighbors of a graceful s-peer departure. A joiner also
// sends it to release the child edge of an acceptor whose ack it ignored.
type sLeaveMsg struct{}

// sizeReport carries a peer's subtree size, itself included, to its connect
// point whenever it changes; Hops bounds the cascade (Peer.reportSize).
type sizeReport struct {
	Size int
	Hops int
}

// --- Failure detection -------------------------------------------------------

// helloMsg is the periodic heartbeat. Heartbeats flowing down the tree
// piggyback the s-network's identity and segment bounds so every s-peer
// tracks them without extra traffic; heartbeats flowing up repeat the
// sender's subtree size, so a lost sizeReport is made good within a tick.
type helloMsg struct {
	Root    Ref
	SegLo   idspace.ID
	Subtree int // size of the sender's subtree, itself included
}

// ackMsg acknowledges a data query, doubling as a liveness signal (§3.2.2).
type ackMsg struct{}

// --- Data operations ---------------------------------------------------------

// storeReq routes an insertion along the t-network toward the segment that
// owns the item's d_id.
type storeReq struct {
	Item   Item
	Origin Ref
	Tag    uint64
	Hops   int
}

// spreadReq performs the scheme-2 random spreading walk inside the owning
// s-network.
type spreadReq struct {
	Item   Item
	Origin Ref
	Tag    uint64
	Hops   int
}

// storeAck confirms an insertion back to the origin; Holder is where the
// item landed (used for bypass-link creation, so the holder's segment lower
// bound rides along).
type storeAck struct {
	Tag         uint64
	Holder      Ref
	HolderSegLo idspace.ID
	Hops        int
}

// lookupReq routes a lookup along the t-network toward the owning segment.
// TTL, when positive, overrides the configured flood radius at the target
// s-network.
type lookupReq struct {
	QID    uint64
	DID    idspace.ID
	Origin Ref
	TTL    int
	Hops   int
	// Probe is the α-parallel probe index (LookupAlpha > 1): the first
	// t-peer that ring-routes the request picks the Probe-th best candidate
	// hop and clears it, so probes from an s-peer origin diverge at the ring
	// entry point. 0 on the plain single-probe path.
	Probe uint8
}

// floodReq searches an s-network tree. It travels every tree edge away from
// its entry point at most once, so each peer receives it exactly once.
type floodReq struct {
	QID    uint64
	DID    idspace.ID
	Origin Ref
	TTL    int
	Hops   int
}

// foundMsg delivers the item directly to the lookup origin.
type foundMsg struct {
	QID         uint64
	Item        Item
	Holder      Ref
	HolderSegLo idspace.ID
	Hops        int
}

// notFoundMsg is a definitive miss from a tracker-mode t-peer (no flooding
// to wait out, so the origin can fail fast).
type notFoundMsg struct {
	QID  uint64
	Hops int
}

// --- Tracker mode (§5.5) -----------------------------------------------------

// indexAdd reports a locally stored item to the s-network's tracker t-peer.
type indexAdd struct {
	DID    idspace.ID
	Holder Ref
}

// indexRemove withdraws an index entry when an item moves away.
type indexRemove struct {
	DID    idspace.ID
	Holder Ref
}

// fetchReq asks a specific holder for an item (tracker mode direct fetch).
type fetchReq struct {
	QID    uint64
	DID    idspace.ID
	Origin Ref
	Hops   int
}

// bypassAdd installs the reverse half of a new bypass link (§5.4).
type bypassAdd struct {
	Peer  Ref
	SegLo idspace.ID
}

// --- Replication (ReplicationK > 1) ------------------------------------------

// replicaPut pushes replicas of the owner's items down the successor chain.
// TTL is the number of further hops the batch may travel (k−1 at the owner);
// each t-peer stores a replica and forwards with TTL−1 until it runs out or
// the batch wraps back to the owner. Round tags a tracked push so the owner
// can count distinct ackers; Round 0 is untracked (the eager push on store,
// and a delta that a digest follows in the same tick). Full marks a batch
// that is the owner's whole owned set rather than a delta: it is
// authoritative, so a holder retires every replica it keeps for that owner
// that the batch does not name.
type replicaPut struct {
	Owner Ref
	Round uint64
	TTL   int
	Items []Item
	Full  bool
}

// replicaAck confirms one hop of a tracked replicaPut chain back to the owner.
type replicaAck struct {
	Round uint64
}

// replicaDrop retires replicas of deleted items along the successor chain.
type replicaDrop struct {
	Owner Ref
	TTL   int
	DIDs  []idspace.ID
}

// replicaDigest is the owner's periodic anti-entropy probe: the size of its
// owned set and the XOR of itemSum over it, forwarded down the chain like a
// replicaPut. A holder whose replicas for that owner add up to the same pair
// refreshes them and answers with a replicaAck; one that differs stays silent
// and does not forward, so the owner reads the missing ack as a deficit and
// answers with a full replicaPut.
type replicaDigest struct {
	Owner Ref
	Round uint64
	TTL   int
	Count int
	Sum   uint64
}

// ownerAnnounce reports in-segment items an s-peer holds (spread placement)
// to its owning t-peer, so the owner's authoritative copy covers items
// physically stored below it in the tree: the items stored since the last
// announce, or everything in the segment when the t-peer changed.
type ownerAnnounce struct {
	Items []Item
}

// deleteReq routes a deletion along the t-network toward the owning segment,
// mirroring storeReq.
type deleteReq struct {
	DID    idspace.ID
	Origin Ref
	Tag    uint64
	Hops   int
}

// deleteAck confirms a deletion back to the origin. Existed reports whether
// the owner actually held the item.
type deleteAck struct {
	Tag     uint64
	Existed bool
	Hops    int
}

// deleteFlood removes every stored or cached copy of an item from an
// s-network tree (the owner floods it on delete so spread copies die too).
type deleteFlood struct {
	DID idspace.ID
	TTL int
}

// deleteRing walks a deletion around the t-network ring when the surrogate
// caching scheme is on: requester-side cache copies (handleFound) live in
// arbitrary s-networks that the owner's own tree flood cannot reach, so each
// t-peer on the walk purges its cache and re-floods the purge down its own
// tree. Without Caching no copy can exist outside the owner's segment and
// the walk is never sent.
type deleteRing struct {
	DID    idspace.ID
	Origin Ref
	TTL    int
}
