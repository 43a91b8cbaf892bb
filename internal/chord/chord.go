// Package chord implements the Chord distributed hash table as a
// message-passing protocol over simnet.
//
// It serves two roles in this repository: it is the structured baseline the
// paper compares against (the hybrid system with p_s = 0 degenerates to a
// ring-based structured network), and it documents the machinery — ring
// pointers, finger tables, stabilization — that the hybrid t-network inherits
// and then simplifies via substitution-on-leave.
package chord

import (
	"fmt"

	"repro/internal/idspace"
	"repro/internal/runtime"
)

// FingerBits is the identifier size in bits; fingers cover 2^0 .. 2^63.
const FingerBits = 64

// Fixed protocol parameters; no experiment varies them.
const (
	// successorListLen is r, the length of each node's successor list.
	successorListLen = 8
	// stabilizeEvery is the period of the stabilization protocol.
	stabilizeEvery = 500 * runtime.Millisecond
	// fixFingersPerRound is how many finger entries each stabilization
	// round refreshes.
	fixFingersPerRound = 8
	// messageBytes is the nominal size of a control message.
	messageBytes = 128
)

// Config tunes a Chord deployment. NewNetwork uses it as given; start from
// DefaultConfig.
type Config struct {
	// LookupTimeout bounds a lookup before it is declared failed.
	LookupTimeout runtime.Time
}

// DefaultConfig returns the settings used in the experiments.
func DefaultConfig() Config {
	return Config{LookupTimeout: 60 * runtime.Second}
}

// ref is a (id, address) pair naming a remote node.
type ref struct {
	ID   idspace.ID
	Addr runtime.Addr
}

var nilRef = ref{Addr: runtime.None}

func (r ref) valid() bool { return r.Addr != runtime.None }

// Network owns a set of Chord nodes running over one simnet.
type Network struct {
	rt  runtime.Runtime
	Cfg Config

	nodes map[runtime.Addr]*Node
	next  runtime.Addr
}

// NewNetwork creates an empty Chord deployment.
func NewNetwork(rt runtime.Runtime, cfg Config) *Network {
	return &Network{rt: rt, Cfg: cfg, nodes: make(map[runtime.Addr]*Node)}
}

// Node is one Chord participant.
type Node struct {
	ID   idspace.ID
	Addr runtime.Addr

	net *Network

	predecessor ref
	successors  []ref // successors[0] is the immediate successor
	finger      [FingerBits]ref
	nextFinger  int

	data map[idspace.ID]Item

	stabilizer *runtime.Ticker
	alive      bool

	// pending tracks outstanding lookup/store operations by request id.
	pending map[uint64]*op
	nextOp  uint64
}

// Item is a stored (key, value) pair along with its hashed id.
type Item struct {
	Key   string
	Value string
	DID   idspace.ID
}

// op is an outstanding client operation.
type op struct {
	kind    string
	start   runtime.Time
	fidx    int // finger index, for fixfinger ops
	done    func(Result)
	timeout runtime.Handle
}

// Result reports the outcome of a lookup or store.
type Result struct {
	OK      bool
	Key     string
	Value   string
	Hops    int
	Latency runtime.Time
	Owner   runtime.Addr
}

// CreateNode provisions a node hosted on the given physical topology node
// and, if bootstrap is invalid, makes it the first node of a fresh ring.
// Otherwise it joins via the bootstrap node.
func (nw *Network) CreateNode(id idspace.ID, host int, capacity float64, bootstrap runtime.Addr) *Node {
	addr := nw.next
	nw.next++
	n := &Node{
		ID:      id,
		Addr:    addr,
		net:     nw,
		data:    make(map[idspace.ID]Item),
		pending: make(map[uint64]*op),
		alive:   true,
	}
	n.predecessor = nilRef
	// The zero Ref would point at address 0 (a real node), so every
	// finger slot must start out explicitly nil.
	for i := range n.finger {
		n.finger[i] = nilRef
	}
	nw.nodes[addr] = n
	nw.rt.Attach(addr, runtime.Endpoint{Host: host, Capacity: capacity}, runtime.HandlerFunc(n.recv))

	n.stabilizer = runtime.NewTicker(nw.rt, stabilizeEvery, n.stabilize)
	n.stabilizer.Start()

	if bootstrap == runtime.None {
		// First node: closes the ring on itself.
		self := ref{ID: id, Addr: addr}
		n.successors = []ref{self}
		for i := range n.finger {
			n.finger[i] = self
		}
		return n
	}
	n.successors = []ref{{ID: id, Addr: addr}}
	n.join(bootstrap)
	return n
}

// Runtime returns the runtime the network executes on.
func (nw *Network) Runtime() runtime.Runtime { return nw.rt }

// Node returns the node at the given address, or nil.
func (nw *Network) Node(a runtime.Addr) *Node {
	return nw.nodes[a]
}

// Nodes returns all live nodes (order unspecified).
func (nw *Network) Nodes() []*Node {
	out := make([]*Node, 0, len(nw.nodes))
	for _, n := range nw.nodes {
		if n.alive {
			out = append(out, n)
		}
	}
	return out
}

// Alive reports whether the node is still participating.
func (n *Node) Alive() bool { return n.alive }

// Successor returns the immediate successor's address.
func (n *Node) Successor() runtime.Addr {
	if len(n.successors) == 0 {
		return runtime.None
	}
	return n.successors[0].Addr
}

// Predecessor returns the predecessor's address (None if unknown).
func (n *Node) Predecessor() runtime.Addr { return n.predecessor.Addr }

// NumItems returns the number of data items the node stores.
func (n *Node) NumItems() int { return len(n.data) }

// send transmits a control message of the nominal size.
func (n *Node) send(to runtime.Addr, msg any) {
	n.net.rt.Send(n.Addr, to, messageBytes, msg)
}

func (n *Node) self() ref { return ref{ID: n.ID, Addr: n.Addr} }

// Messages.
type (
	// findSuccReq asks to resolve the successor of Target and reply to
	// Origin with the caller-chosen tag.
	findSuccReq struct {
		Target idspace.ID
		Origin runtime.Addr
		Tag    uint64
		Hops   int
	}
	findSuccResp struct {
		Target idspace.ID
		Succ   ref
		Tag    uint64
		Hops   int
	}
	// getPredReq/Resp implement the stabilization probe.
	getPredReq  struct{}
	getPredResp struct {
		Pred  ref
		Succs []ref
	}
	notifyMsg struct{ Cand ref }
	storeMsg  struct {
		Item   Item
		Origin runtime.Addr
		Tag    uint64
		Hops   int
	}
	storeAck struct {
		Tag  uint64
		Hops int
	}
	lookupMsg struct {
		DID    idspace.ID
		Key    string
		Origin runtime.Addr
		Tag    uint64
		Hops   int
	}
	lookupResp struct {
		Tag   uint64
		OK    bool
		Value string
		Hops  int
	}
	transferMsg struct{ Items []Item }
	leaveMsg    struct {
		Pred ref // departing node's predecessor, sent to its successor
		Succ ref // departing node's successor, sent to its predecessor
	}
)

func (n *Node) recv(from runtime.Addr, msg any) {
	if !n.alive {
		return
	}
	switch m := msg.(type) {
	case findSuccReq:
		n.handleFindSucc(m)
	case findSuccResp:
		n.handleFindSuccResp(m)
	case getPredReq:
		n.send(from, getPredResp{Pred: n.predecessor, Succs: n.successorList()})
	case getPredResp:
		n.handleStabilizeResp(from, m)
	case notifyMsg:
		n.handleNotify(m.Cand)
	case storeMsg:
		n.handleStore(m)
	case storeAck:
		n.finishOp(m.Tag, Result{OK: true, Hops: m.Hops})
	case lookupMsg:
		n.handleLookup(m)
	case lookupResp:
		n.finishOp(m.Tag, Result{OK: m.OK, Value: m.Value, Hops: m.Hops})
	case transferMsg:
		for _, it := range m.Items {
			n.data[it.DID] = it
		}
	case leaveMsg:
		n.handleLeave(from, m)
	default:
		panic(fmt.Sprintf("chord: unknown message %T", msg))
	}
}

// closestPreceding returns the live finger entry closest to target from
// above (Chord's closest_preceding_node), falling back to the successor.
func (n *Node) closestPreceding(target idspace.ID) ref {
	for i := FingerBits - 1; i >= 0; i-- {
		f := n.finger[i]
		if f.valid() && f.Addr != n.Addr && idspace.StrictBetween(n.ID, f.ID, target) {
			return f
		}
	}
	for i := len(n.successors) - 1; i >= 0; i-- {
		s := n.successors[i]
		if s.valid() && s.Addr != n.Addr && idspace.StrictBetween(n.ID, s.ID, target) {
			return s
		}
	}
	return nilRef
}

// handleFindSucc resolves or forwards a successor query.
func (n *Node) handleFindSucc(m findSuccReq) {
	succ := n.successors[0]
	if idspace.Between(n.ID, m.Target, succ.ID) {
		n.send(m.Origin, findSuccResp{Target: m.Target, Succ: succ, Tag: m.Tag, Hops: m.Hops + 1})
		return
	}
	next := n.closestPreceding(m.Target)
	if !next.valid() || next.Addr == n.Addr {
		// No better hop known; answer with our successor as best effort.
		n.send(m.Origin, findSuccResp{Target: m.Target, Succ: succ, Tag: m.Tag, Hops: m.Hops + 1})
		return
	}
	m.Hops++
	n.send(next.Addr, m)
}

// join initiates the Chord join protocol through the bootstrap node.
func (n *Node) join(bootstrap runtime.Addr) {
	tag := n.newTag()
	n.pending[tag] = &op{kind: "join"}
	n.send(bootstrap, findSuccReq{Target: n.ID, Origin: n.Addr, Tag: tag})
}

func (n *Node) handleFindSuccResp(m findSuccResp) {
	o, ok := n.pending[m.Tag]
	if !ok {
		return
	}
	switch o.kind {
	case "join":
		delete(n.pending, m.Tag)
		n.successors = []ref{m.Succ}
		n.send(m.Succ.Addr, notifyMsg{Cand: n.self()})
	case "fixfinger":
		delete(n.pending, m.Tag)
		n.finger[o.fidx] = m.Succ
	default:
		delete(n.pending, m.Tag)
	}
}

// newTag allocates a unique request tag.
func (n *Node) newTag() uint64 {
	n.nextOp++
	return n.nextOp
}

// successorList returns this node's successor list, truncated to r,
// starting with itself so callers can splice it after their own successor.
func (n *Node) successorList() []ref {
	out := make([]ref, 0, len(n.successors)+1)
	out = append(out, n.self())
	out = append(out, n.successors...)
	if len(out) > successorListLen {
		out = out[:successorListLen]
	}
	return out
}

// stabilize runs one round of the periodic stabilization protocol.
func (n *Node) stabilize() {
	if !n.alive {
		return
	}
	// Skip dead successors: the first live entry in the list becomes the
	// working successor.
	for len(n.successors) > 1 && !n.net.rt.Attached(n.successors[0].Addr) {
		n.successors = n.successors[1:]
	}
	succ := n.successors[0]
	if succ.Addr == n.Addr {
		// Ring of one; still refresh fingers so a rejoining ring heals.
		n.fixFingers()
		return
	}
	n.send(succ.Addr, getPredReq{})
	n.fixFingers()
}

func (n *Node) handleStabilizeResp(from runtime.Addr, m getPredResp) {
	succ := n.successors[0]
	if from != succ.Addr {
		return // stale response from a replaced successor
	}
	if m.Pred.valid() && idspace.StrictBetween(n.ID, m.Pred.ID, succ.ID) && n.net.rt.Attached(m.Pred.Addr) {
		succ = m.Pred
	}
	list := append([]ref{succ}, m.Succs...)
	// Deduplicate while preserving order, drop self-loops beyond first.
	seen := map[runtime.Addr]bool{}
	var dedup []ref
	for _, r := range list {
		if r.valid() && !seen[r.Addr] {
			seen[r.Addr] = true
			dedup = append(dedup, r)
		}
	}
	if len(dedup) > successorListLen {
		dedup = dedup[:successorListLen]
	}
	n.successors = dedup
	n.send(succ.Addr, notifyMsg{Cand: n.self()})
}

func (n *Node) handleNotify(cand ref) {
	if cand.Addr == n.Addr {
		return
	}
	if !n.predecessor.valid() || !n.net.rt.Attached(n.predecessor.Addr) ||
		idspace.StrictBetween(n.predecessor.ID, cand.ID, n.ID) {
		prevValid := n.predecessor.valid()
		n.predecessor = cand
		// A new predecessor takes over part of our key range; hand over
		// the items it now owns.
		n.transferOwnedBelow(cand, prevValid)
	}
	if len(n.successors) == 1 && n.successors[0].Addr == n.Addr {
		// Singleton ring learning of a second node.
		n.successors = []ref{cand}
	}
}

// transferOwnedBelow ships items owned by the new predecessor to it.
func (n *Node) transferOwnedBelow(pred ref, _ bool) {
	var moved []Item
	for did, it := range n.data {
		if !idspace.Between(pred.ID, did, n.ID) {
			moved = append(moved, it)
			delete(n.data, did)
		}
	}
	if len(moved) > 0 {
		n.net.rt.Send(n.Addr, pred.Addr, messageBytes*len(moved), transferMsg{Items: moved})
	}
}

// fixFingers refreshes the next few finger entries.
func (n *Node) fixFingers() {
	for i := 0; i < fixFingersPerRound; i++ {
		idx := n.nextFinger
		n.nextFinger = (n.nextFinger + 1) % FingerBits
		target := idspace.FingerStart(n.ID, idx)
		tag := n.newTag()
		n.pending[tag] = &op{kind: "fixfinger", fidx: idx}
		n.send(n.Addr, findSuccReq{Target: target, Origin: n.Addr, Tag: tag})
	}
}

// Store inserts a (key, value) pair; done (optional) fires with the result.
func (n *Node) Store(key, value string, done func(Result)) {
	it := Item{Key: key, Value: value, DID: idspace.HashKey(key)}
	tag := n.newTag()
	o := &op{kind: "store", start: n.net.rt.Now(), done: done}
	n.pending[tag] = o
	o.timeout = n.net.rt.Schedule(n.net.Cfg.LookupTimeout, func() {
		n.finishOp(tag, Result{OK: false, Key: key})
	})
	n.routeStore(storeMsg{Item: it, Origin: n.Addr, Tag: tag})
}

func (n *Node) routeStore(m storeMsg) {
	succ := n.successors[0]
	if idspace.Between(n.predecessor.ID, m.Item.DID, n.ID) && n.predecessor.valid() {
		// We own it ourselves.
		n.data[m.Item.DID] = m.Item
		n.send(m.Origin, storeAck{Tag: m.Tag, Hops: m.Hops})
		return
	}
	if idspace.Between(n.ID, m.Item.DID, succ.ID) {
		m.Hops++
		n.send(succ.Addr, m)
		return
	}
	next := n.closestPreceding(m.Item.DID)
	if !next.valid() || next.Addr == n.Addr {
		n.data[m.Item.DID] = m.Item
		n.send(m.Origin, storeAck{Tag: m.Tag, Hops: m.Hops})
		return
	}
	m.Hops++
	n.send(next.Addr, m)
}

func (n *Node) handleStore(m storeMsg) {
	n.routeStore(m)
}

// Lookup resolves key and calls done with the result (including hop count
// and latency). A timeout yields a failed Result.
func (n *Node) Lookup(key string, done func(Result)) {
	did := idspace.HashKey(key)
	tag := n.newTag()
	o := &op{kind: "lookup", start: n.net.rt.Now(), done: done}
	n.pending[tag] = o
	o.timeout = n.net.rt.Schedule(n.net.Cfg.LookupTimeout, func() {
		n.finishOp(tag, Result{OK: false, Key: key})
	})
	n.routeLookup(lookupMsg{DID: did, Key: key, Origin: n.Addr, Tag: tag})
}

func (n *Node) routeLookup(m lookupMsg) {
	if it, ok := n.data[m.DID]; ok {
		n.send(m.Origin, lookupResp{Tag: m.Tag, OK: true, Value: it.Value, Hops: m.Hops})
		return
	}
	succ := n.successors[0]
	if idspace.Between(n.ID, m.DID, succ.ID) && succ.Addr != n.Addr {
		m.Hops++
		n.send(succ.Addr, m)
		return
	}
	next := n.closestPreceding(m.DID)
	if !next.valid() || next.Addr == n.Addr {
		// We are the owner but do not have the item.
		n.send(m.Origin, lookupResp{Tag: m.Tag, OK: false, Hops: m.Hops})
		return
	}
	m.Hops++
	n.send(next.Addr, m)
}

func (n *Node) handleLookup(m lookupMsg) {
	n.routeLookup(m)
}

// finishOp completes a pending operation exactly once.
func (n *Node) finishOp(tag uint64, r Result) {
	o, ok := n.pending[tag]
	if !ok {
		return
	}
	delete(n.pending, tag)
	n.net.rt.Unschedule(o.timeout)
	r.Latency = n.net.rt.Now() - o.start
	if o.done != nil {
		o.done(r)
	}
}

// Leave performs a graceful departure: data moves to the successor and the
// ring pointers around the node are patched.
func (n *Node) Leave() {
	if !n.alive {
		return
	}
	succ := n.successors[0]
	if succ.Addr != n.Addr {
		var items []Item
		for _, it := range n.data {
			items = append(items, it)
		}
		if len(items) > 0 {
			n.net.rt.Send(n.Addr, succ.Addr, messageBytes*len(items), transferMsg{Items: items})
		}
		n.send(succ.Addr, leaveMsg{Pred: n.predecessor, Succ: nilRef})
		if n.predecessor.valid() {
			n.send(n.predecessor.Addr, leaveMsg{Succ: succ, Pred: nilRef})
		}
	}
	n.Crash()
}

func (n *Node) handleLeave(from runtime.Addr, m leaveMsg) {
	if m.Pred.valid() && n.predecessor.Addr == from {
		n.predecessor = m.Pred
	}
	if m.Succ.valid() && len(n.successors) > 0 && n.successors[0].Addr == from {
		n.successors[0] = m.Succ
	}
}

// Crash removes the node abruptly: no notifications, data lost.
func (n *Node) Crash() {
	if !n.alive {
		return
	}
	n.alive = false
	n.stabilizer.Stop()
	n.net.rt.Detach(n.Addr)
	delete(n.net.nodes, n.Addr)
}
