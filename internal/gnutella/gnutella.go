// Package gnutella implements a Gnutella-style unstructured peer-to-peer
// network: an arbitrary mesh overlay searched by TTL-bounded flooding.
//
// It is the unstructured comparator from the paper (the hybrid system with
// p_s = 1 "becomes a Gnutella-style unstructured peer-to-peer system") and
// the ablation target for the hybrid s-network's tree topology: in a mesh, a
// peer can receive the same query many times, so the package counts duplicate
// deliveries explicitly.
package gnutella

import (
	"fmt"
	"sort"

	"repro/internal/idspace"
	"repro/internal/runtime"
)

// Fixed protocol parameters; no experiment varies them.
const (
	// defaultTTL is the flood radius used when a query does not override it.
	defaultTTL = 5
	// messageBytes is the nominal control-message size.
	messageBytes = 128
)

// Config tunes a Gnutella deployment. NewNetwork uses it as given; start
// from DefaultConfig.
type Config struct {
	// DegreeTarget is how many random neighbors a joining peer links to.
	DegreeTarget int
	// LookupTimeout bounds a query before it is declared failed.
	LookupTimeout runtime.Time
}

// DefaultConfig returns the parameters used by the experiments.
func DefaultConfig() Config {
	return Config{
		DegreeTarget:  4,
		LookupTimeout: 30 * runtime.Second,
	}
}

// Network owns a set of Gnutella peers on one simnet.
type Network struct {
	rt  runtime.Runtime
	Cfg Config

	peers map[runtime.Addr]*Peer
	next  runtime.Addr

	// DuplicateDeliveries counts query copies received by peers that had
	// already seen the query — the mesh's flooding overhead.
	DuplicateDeliveries uint64
	// QueryDeliveries counts first-time query deliveries.
	QueryDeliveries uint64
}

// NewNetwork creates an empty deployment.
func NewNetwork(rt runtime.Runtime, cfg Config) *Network {
	return &Network{rt: rt, Cfg: cfg, peers: make(map[runtime.Addr]*Peer)}
}

// Peer is one Gnutella participant.
type Peer struct {
	Addr runtime.Addr

	net       *Network
	neighbors map[runtime.Addr]bool
	data      map[idspace.ID]Item
	seen      map[uint64]bool // query ids already processed
	alive     bool

	pending map[uint64]*query
	nextTag uint64
}

// Item is a stored (key, value) pair.
type Item struct {
	Key   string
	Value string
	DID   idspace.ID
}

// query is an outstanding search issued by this peer.
type query struct {
	start   runtime.Time
	done    func(Result)
	timeout runtime.Handle
	found   bool
}

// Result reports the outcome of a search.
type Result struct {
	OK      bool
	Key     string
	Value   string
	Hops    int
	Latency runtime.Time
}

// Join creates a peer on the given host and links it to up to DegreeTarget
// uniformly chosen existing peers (the "loose rules" of Gnutella overlay
// formation).
func (nw *Network) Join(host int, capacity float64) *Peer {
	addr := nw.next
	nw.next++
	p := &Peer{
		Addr:      addr,
		net:       nw,
		neighbors: make(map[runtime.Addr]bool),
		data:      make(map[idspace.ID]Item),
		seen:      make(map[uint64]bool),
		pending:   make(map[uint64]*query),
		alive:     true,
	}
	existing := nw.alivePeers()
	nw.peers[addr] = p
	nw.rt.Attach(addr, runtime.Endpoint{Host: host, Capacity: capacity}, runtime.HandlerFunc(p.recv))

	rng := nw.rt.Rand()
	want := nw.Cfg.DegreeTarget
	if want > len(existing) {
		want = len(existing)
	}
	for _, i := range rng.Perm(len(existing))[:want] {
		other := existing[i]
		p.neighbors[other.Addr] = true
		other.neighbors[addr] = true
	}
	return p
}

// alivePeers returns live peers sorted by address for determinism.
func (nw *Network) alivePeers() []*Peer {
	out := make([]*Peer, 0, len(nw.peers))
	for _, p := range nw.peers {
		if p.alive {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Peers returns all live peers sorted by address.
func (nw *Network) Peers() []*Peer { return nw.alivePeers() }

// Runtime returns the runtime the network executes on.
func (nw *Network) Runtime() runtime.Runtime { return nw.rt }

// Peer returns the peer at addr, or nil.
func (nw *Network) Peer(a runtime.Addr) *Peer { return nw.peers[a] }

// Alive reports whether the peer is participating.
func (p *Peer) Alive() bool { return p.alive }

// Degree returns the current neighbor count.
func (p *Peer) Degree() int { return len(p.neighbors) }

// Neighbors returns the neighbor addresses in ascending order.
func (p *Peer) Neighbors() []runtime.Addr {
	out := make([]runtime.Addr, 0, len(p.neighbors))
	for a := range p.neighbors {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumItems returns the number of locally stored items.
func (p *Peer) NumItems() int { return len(p.data) }

// StoreLocal inserts the item at this peer. Gnutella has no data placement:
// content lives wherever it was published.
func (p *Peer) StoreLocal(key, value string) {
	did := idspace.HashKey(key)
	p.data[did] = Item{Key: key, Value: value, DID: did}
}

// Messages.
type (
	queryMsg struct {
		QID    uint64
		DID    idspace.ID
		Origin runtime.Addr
		TTL    int
		Hops   int
	}
	queryHit struct {
		QID   uint64
		Value string
		Hops  int
	}
	byeMsg struct{}
)

func (p *Peer) recv(from runtime.Addr, msg any) {
	if !p.alive {
		return
	}
	switch m := msg.(type) {
	case queryMsg:
		p.handleQuery(from, m)
	case queryHit:
		p.handleHit(m)
	case byeMsg:
		delete(p.neighbors, from)
	default:
		panic(fmt.Sprintf("gnutella: unknown message %T", msg))
	}
}

func (p *Peer) send(to runtime.Addr, msg any) {
	p.net.rt.Send(p.Addr, to, messageBytes, msg)
}

// Lookup floods a query with the given TTL (0 uses the default) and reports
// the first hit, or failure after the timeout.
func (p *Peer) Lookup(key string, ttl int, done func(Result)) {
	if ttl <= 0 {
		ttl = defaultTTL
	}
	did := idspace.HashKey(key)
	p.nextTag++
	qid := uint64(p.Addr)<<32 | p.nextTag
	q := &query{start: p.net.rt.Now(), done: done}
	p.pending[qid] = q
	q.timeout = p.net.rt.Schedule(p.net.Cfg.LookupTimeout, func() {
		p.finish(qid, Result{OK: false, Key: key})
	})
	p.seen[qid] = true

	// Local database check comes first, as in any Gnutella servent.
	if it, ok := p.data[did]; ok {
		p.net.rt.SendLocal(p.Addr, queryHit{QID: qid, Value: it.Value, Hops: 0})
		return
	}
	m := queryMsg{QID: qid, DID: did, Origin: p.Addr, TTL: ttl, Hops: 0}
	for _, nb := range p.Neighbors() {
		p.send(nb, m)
	}
}

func (p *Peer) handleQuery(from runtime.Addr, m queryMsg) {
	if p.seen[m.QID] {
		// Mesh duplicate: the cost the hybrid system's tree eliminates.
		p.net.DuplicateDeliveries++
		return
	}
	p.seen[m.QID] = true
	p.net.QueryDeliveries++

	if it, ok := p.data[m.DID]; ok {
		p.send(m.Origin, queryHit{QID: m.QID, Value: it.Value, Hops: m.Hops + 1})
		return // stop flooding on hit
	}
	if m.TTL <= 1 {
		return
	}
	m.TTL--
	m.Hops++
	for _, nb := range p.Neighbors() {
		if nb != from {
			p.send(nb, m)
		}
	}
}

func (p *Peer) handleHit(m queryHit) {
	p.finish(m.QID, Result{OK: true, Value: m.Value, Hops: m.Hops})
}

func (p *Peer) finish(qid uint64, r Result) {
	q, ok := p.pending[qid]
	if !ok || q.found {
		return
	}
	q.found = true
	delete(p.pending, qid)
	p.net.rt.Unschedule(q.timeout)
	r.Latency = p.net.rt.Now() - q.start
	if q.done != nil {
		q.done(r)
	}
}

// Leave removes the peer gracefully, telling neighbors to drop it.
func (p *Peer) Leave() {
	if !p.alive {
		return
	}
	for _, nb := range p.Neighbors() {
		p.send(nb, byeMsg{})
	}
	p.Crash()
}

// Crash removes the peer abruptly; neighbors discover the gap only through
// failed queries (pure Gnutella has no repair protocol to run here because
// the topology is unconstrained).
func (p *Peer) Crash() {
	if !p.alive {
		return
	}
	p.alive = false
	p.net.rt.Detach(p.Addr)
	delete(p.net.peers, p.Addr)
}
