package kad

import (
	"fmt"
	"sort"

	"repro/internal/runtime"
)

// Fixed protocol parameters; no experiment varies them.
const (
	// rpcTimeout bounds a single FIND_NODE/FIND_VALUE RPC before the
	// contact is written off as unreachable.
	rpcTimeout = 2 * runtime.Second
	// lookupTimeout bounds a whole iterative operation.
	lookupTimeout = 60 * runtime.Second
	// messageBytes is the nominal size of a control message.
	messageBytes = 128
)

// Config tunes a Kademlia deployment. NewNetwork uses it as given; start
// from DefaultConfig.
type Config struct {
	// K is the bucket size and the store replication factor (the paper's
	// k, classically 20).
	K int
	// Alpha is the lookup parallelism: at most α RPCs of one iterative
	// lookup are outstanding at a time.
	Alpha int
}

// DefaultConfig returns the settings used in the experiments.
func DefaultConfig() Config {
	return Config{K: 20, Alpha: 3}
}

// Contact names a remote node.
type Contact struct {
	ID   ID
	Addr runtime.Addr
}

// NilContact is the invalid contact (no bootstrap).
var NilContact = Contact{Addr: runtime.None}

// Valid reports whether the contact names a node.
func (c Contact) Valid() bool { return c.Addr != runtime.None }

// Item is a stored (key, value) pair along with its hashed id.
type Item struct {
	Key   string
	Value string
	DID   ID
}

// Result reports the outcome of a lookup or store.
type Result struct {
	OK    bool
	Key   string
	Value string
	// Hops is the iteration depth of the contact that produced the answer:
	// 1 for a contact already in the origin's buckets, +1 per learned-from
	// round. The iterative analogue of recursive route length.
	Hops    int
	Latency runtime.Time
}

// Network owns a set of Kademlia nodes running over one runtime.
type Network struct {
	rt  runtime.Runtime
	Cfg Config

	nodes map[runtime.Addr]*Node
	next  runtime.Addr
}

// NewNetwork creates an empty Kademlia deployment.
func NewNetwork(rt runtime.Runtime, cfg Config) *Network {
	return &Network{rt: rt, Cfg: cfg, nodes: make(map[runtime.Addr]*Node)}
}

// Runtime returns the runtime the network executes on.
func (nw *Network) Runtime() runtime.Runtime { return nw.rt }

// Node returns the node at the given address, or nil.
func (nw *Network) Node(a runtime.Addr) *Node { return nw.nodes[a] }

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

// Node is one Kademlia participant.
type Node struct {
	ID   ID
	Addr runtime.Addr

	net   *Network
	alive bool

	// buckets[i] holds contacts whose XOR distance to this node has its
	// highest bit at position i. Front = least recently seen; a full
	// bucket evicts the front entry only when it is no longer attached,
	// otherwise the newcomer is dropped (the paper's stale-favoring LRU,
	// minus the ping round-trip the runtime answers directly).
	buckets [IDBits][]Contact

	data map[ID]Item

	// pending tracks iterative operations by tag; rpcs tracks the
	// individual outstanding RPCs feeding them.
	pending map[uint64]*lookupState
	rpcs    map[uint64]*rpcState
	nextTag uint64
}

// lookupState is one iterative FIND_NODE/FIND_VALUE in flight.
type lookupState struct {
	target    ID
	findValue bool
	key       string
	start     runtime.Time
	// short is the shortlist, sorted by XOR distance to target.
	short    []shortEntry
	queried  map[runtime.Addr]bool
	inflight int
	done     func(Result)
	// onNodes fires with the k closest responded contacts when a
	// FIND_NODE converges (store placement).
	onNodes func([]Contact)
	timeout runtime.Handle
}

// shortEntry is one shortlist candidate plus its iteration depth and fate.
type shortEntry struct {
	c         Contact
	depth     int
	responded bool
	failed    bool
}

// rpcState correlates one outstanding RPC with its lookup.
type rpcState struct {
	tag   uint64
	to    Contact
	depth int
	timer runtime.Handle
}

// Messages. Every message carries the sender's contact so receivers refresh
// their buckets from real traffic, per the paper.
type (
	findNodeReq struct {
		From   Contact
		Target ID
		RPC    uint64
	}
	findNodeResp struct {
		From    Contact
		RPC     uint64
		Closest []Contact
	}
	findValueReq struct {
		From   Contact
		Target ID
		RPC    uint64
	}
	findValueResp struct {
		From    Contact
		RPC     uint64
		Found   bool
		Value   string
		Closest []Contact
	}
	storeMsg struct {
		From Contact
		It   Item
	}
)

// CreateNode provisions a node on the given physical host and joins it
// through the bootstrap contact (pass NilContact for the first node).
func (nw *Network) CreateNode(id ID, host int, capacity float64, bootstrap Contact) *Node {
	addr := nw.next
	nw.next++
	n := &Node{
		ID:      id,
		Addr:    addr,
		net:     nw,
		alive:   true,
		data:    make(map[ID]Item),
		pending: make(map[uint64]*lookupState),
		rpcs:    make(map[uint64]*rpcState),
	}
	nw.nodes[addr] = n
	nw.rt.Attach(addr, runtime.Endpoint{Host: host, Capacity: capacity}, runtime.HandlerFunc(n.recv))
	if bootstrap.Valid() && bootstrap.Addr != addr {
		n.touch(bootstrap)
		// Iterative lookup of our own id populates the buckets along the
		// path and announces us to our closest neighbors (§2.3 join).
		n.startLookup(id, false, "", nil, nil)
	}
	return n
}

// Alive reports whether the node is still participating.
func (n *Node) Alive() bool { return n.alive }

// NumItems returns the number of stored items.
func (n *Node) NumItems() int { return len(n.data) }

func (n *Node) self() Contact { return Contact{ID: n.ID, Addr: n.Addr} }

func (n *Node) send(to runtime.Addr, msg any) {
	n.net.rt.Send(n.Addr, to, messageBytes, msg)
}

func (n *Node) newTag() uint64 {
	n.nextTag++
	return n.nextTag
}

// touch records traffic from a contact: move-to-back in its bucket, insert
// when there is room, and evict the least-recently-seen entry only when the
// runtime says it is gone.
func (n *Node) touch(c Contact) {
	if !c.Valid() || c.Addr == n.Addr {
		return
	}
	bi := bucketIndex(n.ID.xor(c.ID))
	if bi < 0 {
		return
	}
	b := n.buckets[bi]
	for i := range b {
		if b[i].Addr == c.Addr {
			copy(b[i:], b[i+1:])
			b[len(b)-1] = c
			return
		}
	}
	if len(b) < n.net.Cfg.K {
		n.buckets[bi] = append(b, c)
		return
	}
	if !n.net.rt.Attached(b[0].Addr) {
		copy(b, b[1:])
		b[len(b)-1] = c
		return
	}
	// Bucket full of live contacts: per the paper, prefer the old — nodes
	// that have been up longest are likeliest to stay up.
}

// dropContact removes an unresponsive contact from its bucket.
func (n *Node) dropContact(c Contact) {
	bi := bucketIndex(n.ID.xor(c.ID))
	if bi < 0 {
		return
	}
	b := n.buckets[bi]
	for i := range b {
		if b[i].Addr == c.Addr {
			n.buckets[bi] = append(b[:i], b[i+1:]...)
			return
		}
	}
}

// closestContacts returns up to k contacts from the routing table closest to
// target, sorted by XOR distance (address-tiebroken for determinism).
func (n *Node) closestContacts(target ID, k int) []Contact {
	var all []Contact
	for i := range n.buckets {
		all = append(all, n.buckets[i]...)
	}
	sort.Slice(all, func(i, j int) bool {
		di, dj := all[i].ID.xor(target), all[j].ID.xor(target)
		if di != dj {
			return di.less(dj)
		}
		return all[i].Addr < all[j].Addr
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func (n *Node) recv(from runtime.Addr, msg any) {
	if !n.alive {
		return
	}
	switch m := msg.(type) {
	case findNodeReq:
		n.touch(m.From)
		n.send(from, findNodeResp{From: n.self(), RPC: m.RPC, Closest: n.closestContacts(m.Target, n.net.Cfg.K)})
	case findNodeResp:
		n.touch(m.From)
		n.handleResp(m.RPC, m.From, false, "", m.Closest)
	case findValueReq:
		n.touch(m.From)
		if it, ok := n.data[m.Target]; ok {
			n.send(from, findValueResp{From: n.self(), RPC: m.RPC, Found: true, Value: it.Value})
			return
		}
		n.send(from, findValueResp{From: n.self(), RPC: m.RPC, Closest: n.closestContacts(m.Target, n.net.Cfg.K)})
	case findValueResp:
		n.touch(m.From)
		n.handleResp(m.RPC, m.From, m.Found, m.Value, m.Closest)
	case storeMsg:
		n.touch(m.From)
		n.data[m.It.DID] = m.It
	default:
		panic(fmt.Sprintf("kad: unknown message %T", msg))
	}
}

// startLookup begins an iterative operation toward target. done and onNodes
// may be nil (join lookups want neither).
func (n *Node) startLookup(target ID, findValue bool, key string, done func(Result), onNodes func([]Contact)) {
	tag := n.newTag()
	ls := &lookupState{
		target:    target,
		findValue: findValue,
		key:       key,
		start:     n.net.rt.Now(),
		queried:   make(map[runtime.Addr]bool),
		done:      done,
		onNodes:   onNodes,
	}
	for _, c := range n.closestContacts(target, n.net.Cfg.K) {
		ls.short = append(ls.short, shortEntry{c: c, depth: 1})
	}
	n.pending[tag] = ls
	ls.timeout = n.net.rt.Schedule(lookupTimeout, func() {
		n.finishLookup(tag, Result{OK: false, Key: key})
	})
	n.step(tag, ls)
}

// step issues RPCs until α are in flight or the shortlist is exhausted, and
// detects convergence.
func (n *Node) step(tag uint64, ls *lookupState) {
	for ls.inflight < n.net.Cfg.Alpha {
		e := n.nextCandidate(ls)
		if e == nil {
			break
		}
		ls.queried[e.c.Addr] = true
		ls.inflight++
		rpc := n.newTag()
		n.rpcs[rpc] = &rpcState{tag: tag, to: e.c, depth: e.depth}
		n.rpcs[rpc].timer = n.net.rt.Schedule(rpcTimeout, func() {
			n.rpcTimeout(rpc)
		})
		if ls.findValue {
			n.send(e.c.Addr, findValueReq{From: n.self(), Target: ls.target, RPC: rpc})
		} else {
			n.send(e.c.Addr, findNodeReq{From: n.self(), Target: ls.target, RPC: rpc})
		}
	}
	if ls.inflight == 0 {
		n.converge(tag, ls)
	}
}

// nextCandidate picks the closest unqueried live shortlist entry within the
// k closest — the classic termination window: once the k closest known
// contacts have all been queried, the lookup has converged.
func (n *Node) nextCandidate(ls *lookupState) *shortEntry {
	window := 0
	for i := range ls.short {
		e := &ls.short[i]
		if e.failed {
			continue
		}
		window++
		if !ls.queried[e.c.Addr] {
			return e
		}
		if window >= n.net.Cfg.K {
			break
		}
	}
	return nil
}

// converge ends an iterative operation that ran out of work: FIND_VALUE
// without a hit fails; FIND_NODE hands the k closest responded contacts to
// the store path and succeeds.
func (n *Node) converge(tag uint64, ls *lookupState) {
	if ls.findValue {
		n.finishLookup(tag, Result{OK: false, Key: ls.key})
		return
	}
	if ls.onNodes != nil {
		var closest []Contact
		for i := range ls.short {
			if ls.short[i].responded && len(closest) < n.net.Cfg.K {
				closest = append(closest, ls.short[i].c)
			}
		}
		onNodes := ls.onNodes
		ls.onNodes = nil
		onNodes(closest)
	}
	n.finishLookup(tag, Result{OK: true, Key: ls.key})
}

// handleResp feeds one RPC response into its lookup: mark the responder,
// merge its contacts at depth+1, finish on a value hit, continue otherwise.
func (n *Node) handleResp(rpc uint64, from Contact, found bool, value string, closest []Contact) {
	rs, ok := n.rpcs[rpc]
	if !ok {
		return // RPC already timed out, or its lookup already finished
	}
	delete(n.rpcs, rpc)
	n.net.rt.Unschedule(rs.timer)
	ls, ok := n.pending[rs.tag]
	if !ok {
		return
	}
	ls.inflight--
	for i := range ls.short {
		if ls.short[i].c.Addr == from.Addr {
			ls.short[i].responded = true
		}
	}
	if found && ls.findValue {
		n.finishLookup(rs.tag, Result{OK: true, Key: ls.key, Value: value, Hops: rs.depth})
		return
	}
	for _, c := range closest {
		n.mergeShort(ls, c, rs.depth+1)
	}
	n.step(rs.tag, ls)
}

// mergeShort inserts a learned contact into the shortlist, keeping it sorted
// by XOR distance to the target (address-tiebroken) and deduplicated.
func (n *Node) mergeShort(ls *lookupState, c Contact, depth int) {
	if !c.Valid() || c.Addr == n.Addr {
		return
	}
	dc := c.ID.xor(ls.target)
	i := sort.Search(len(ls.short), func(i int) bool {
		di := ls.short[i].c.ID.xor(ls.target)
		if di != dc {
			return dc.less(di)
		}
		return c.Addr <= ls.short[i].c.Addr
	})
	if i < len(ls.short) && ls.short[i].c.Addr == c.Addr {
		return
	}
	// The same address cannot appear elsewhere in the list: a contact's
	// (id, addr) pair is stable for the life of the deployment.
	ls.short = append(ls.short, shortEntry{})
	copy(ls.short[i+1:], ls.short[i:])
	ls.short[i] = shortEntry{c: c, depth: depth}
}

// rpcTimeout writes off an unresponsive contact: out of the bucket, failed
// in the shortlist, and the lookup moves on.
func (n *Node) rpcTimeout(rpc uint64) {
	rs, ok := n.rpcs[rpc]
	if !ok {
		return
	}
	delete(n.rpcs, rpc)
	n.dropContact(rs.to)
	ls, ok := n.pending[rs.tag]
	if !ok {
		return
	}
	ls.inflight--
	for i := range ls.short {
		if ls.short[i].c.Addr == rs.to.Addr {
			ls.short[i].failed = true
		}
	}
	n.step(rs.tag, ls)
}

// finishLookup completes an iterative operation exactly once.
func (n *Node) finishLookup(tag uint64, r Result) {
	ls, ok := n.pending[tag]
	if !ok {
		return
	}
	delete(n.pending, tag)
	n.net.rt.Unschedule(ls.timeout)
	r.Latency = n.net.rt.Now() - ls.start
	if ls.done != nil {
		ls.done(r)
	}
}

// Store places a (key, value) pair on the k nodes closest to its id: an
// iterative FIND_NODE converges on the neighborhood, then STOREs fan out.
// done (optional) fires once the placement is sent.
func (n *Node) Store(key, value string, done func(Result)) {
	it := Item{Key: key, Value: value, DID: HashKey(key)}
	start := n.net.rt.Now()
	n.startLookup(it.DID, false, key, nil, func(closest []Contact) {
		stored := 0
		for _, c := range closest {
			if stored >= n.net.Cfg.K {
				break
			}
			n.send(c.Addr, storeMsg{From: n.self(), It: it})
			stored++
		}
		if len(closest) < n.net.Cfg.K && !containsSelfByDistance(closest, n, it.DID) {
			// Fewer than k known nodes: we are in the k closest ourselves.
			n.data[it.DID] = it
		}
		if done != nil {
			done(Result{OK: true, Key: key, Latency: n.net.rt.Now() - start})
		}
	})
}

// containsSelfByDistance reports whether any found contact is closer to the
// target than this node — if none are and the set is short, the node itself
// belongs to the replica set.
func containsSelfByDistance(closest []Contact, n *Node, target ID) bool {
	for _, c := range closest {
		if !Closer(n.ID, c.ID, target) {
			return true
		}
	}
	return false
}

// Lookup resolves a key via iterative FIND_VALUE and calls done with the
// result (hop depth and latency included). A timeout or a converged miss
// yields a failed Result.
func (n *Node) Lookup(key string, done func(Result)) {
	did := HashKey(key)
	if it, ok := n.data[did]; ok {
		done(Result{OK: true, Key: key, Value: it.Value, Hops: 0})
		return
	}
	n.startLookup(did, true, key, done, nil)
}

// Crash removes the node abruptly: no notifications, data lost. Peers
// discover the failure through RPC timeouts and bucket eviction.
func (n *Node) Crash() {
	if !n.alive {
		return
	}
	n.alive = false
	n.net.rt.Detach(n.Addr)
	delete(n.net.nodes, n.Addr)
}
