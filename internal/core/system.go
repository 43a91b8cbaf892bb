package core

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/obs"
	"repro/internal/runtime"
)

// System owns one hybrid peer-to-peer deployment: the bootstrap server, the
// t-network ring and every attached s-network, all running over a shared
// runtime. The runtime may be the deterministic discrete-event implementation
// (internal/simnet) or the live goroutine implementation
// (internal/runtime/live); the protocol code is identical under both.
type System struct {
	Cfg Config

	rt         runtime.Runtime
	serverAddr runtime.Addr

	server *Server
	// partial marks a system that hosts only a slice of the deployment's
	// peers (one process of a multi-process cluster on the socket runtime):
	// the dense peer table is a partial view. Only the audit reads the flag
	// (audit.go: view.liveAt and the invariant table's fullView column).
	partial bool
	// peers is the dense peer table, indexed by Addr.Index() (both runtimes
	// allocate addresses sequentially — see runtime.Addr.Index). A nil slot
	// is a departed or never-used address. Replacing the former map keys
	// every peer lookup to one bounds-checked load and makes iteration
	// order the address order for free.
	peers    []*Peer
	numPeers int // live peers (maintained by Join and Peer.stop)

	// nextQID numbers client operations and internal request tags, so every
	// tag is unique within the system.
	nextQID uint64
	// ops is the one table of in-flight client operations, keyed by qid;
	// each names its origin peer and counts its contacts (connum).
	ops map[uint64]*op
	// opFree recycles op records: every client operation allocates one, and
	// at sweep scale the churn of short-lived ops dominated the heap
	// profile. Release happens only in finishOp, after the timeout timer is
	// unscheduled, so no path can touch a recycled record.
	opFree []*op
	// coordCache memoizes landmarkCoord per host: the landmark set is fixed
	// for the server's lifetime, so the coordinate is a pure function of
	// the host index.
	coordCache map[int]string

	stats  SystemStats
	tracer *obs.Tracer
	// met caches registry metric pointers for the protocol hot paths; nil
	// (the default) disables recording. See SetMetrics in obsmetrics.go.
	met *sysMetrics
	// afterTick, when set, runs at the end of every hello tick's
	// maintenance. Nothing in the package sets it: it is where a test
	// holds the scans a tick skipped to the full scans they replace.
	afterTick func(*Peer)
	// watchdogExpired, when set, is told of every watchdog expiry before
	// neighborTimeout runs. Nothing in the package sets it either: it is
	// where a test holds the deadlines to a timer per neighbor.
	watchdogExpired func(p *Peer, nb runtime.Addr)

	// expiries is the event for each µs at which some peer's watchdog
	// deadline is registered (failure.go).
	expiries map[runtime.Time]*expiry
	// watchSeq numbers watchdog deadlines as they are set; dueBuf is the
	// batch an expiry reuses.
	watchSeq uint32
	dueBuf   []dueWatch
}

// SystemStats aggregates protocol-level counters for a run.
type SystemStats struct {
	TJoins, SJoins     int
	TLeaves, SLeaves   int
	Crashes            int
	Promotions         int // s-peer -> t-peer substitutions
	Rejoins            int // s-peers re-attaching after a parent loss
	FloodsSent         uint64
	RingForwards       uint64
	BypassUses         uint64
	IDConflicts        int
	HellosSent         uint64
	AcksSent           uint64
	AcksSuppressed     uint64
	WatchdogExpiries   uint64
	QueuedJoinRequests int
	CachePushes        uint64
	CacheHits          uint64
	ItemsRehomed       uint64 // foreign items re-routed to their owning segment
	ReplicasPushed     uint64 // item copies in owner-originated replicaPuts (eager, delta and full)
	ReplicaFullPushes  uint64 // replicaPuts that carried an owner's whole owned set
	ReplicaDigests     uint64 // replicaDigests sent by owners
	DigestMismatches   uint64 // digest rounds that drew fewer than k−1 acks
	ReplicaServes      uint64 // lookups answered from an owned or replica copy
	ReadRepairs        uint64 // replica serves that re-installed the item on its owner
	ReplicaPromotions  uint64 // held replicas promoted to owned after a takeover
	ProbesSent         uint64 // α-parallel ring probes fanned out (LookupAlpha > 1)
}

// NewSystem creates an empty hybrid system on the given runtime. The server
// is attached at the runtime's bootstrap address on the given physical host.
func NewSystem(rt runtime.Runtime, cfg Config, serverHost int) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		Cfg:        cfg,
		rt:         rt,
		serverAddr: rt.ServerAddr(),
		ops:        make(map[uint64]*op),
	}
	s.server = newServer(s, serverHost)
	return s, nil
}

// NewPeerSystem creates a system that hosts peers but not the bootstrap
// server: a worker process in a multi-process deployment on the socket
// runtime. Peers joined here talk to the cluster's real server at the
// runtime's bootstrap address, exactly as they would talk to a local one —
// the protocol is message-pure, so it cannot tell the difference. The
// system is marked partial: the audit asks the runtime's directory about
// addresses this process does not host (audit.go).
func NewPeerSystem(rt runtime.Runtime, cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &System{
		Cfg:        cfg,
		rt:         rt,
		serverAddr: rt.ServerAddr(),
		ops:        make(map[uint64]*op),
		partial:    true,
	}, nil
}

// Server returns the bootstrap server, or nil on a peer-only system.
func (s *System) Server() *Server { return s.server }

// MarkPartial marks the system as hosting only a slice of the deployment.
// The bootstrap process of a multi-process cluster needs this: it owns the
// server (so it is built with NewSystem), but other processes' peers join
// the same ring, so its peer table is still a partial view.
func (s *System) MarkPartial() { s.partial = true }

// Runtime returns the runtime the system executes on.
func (s *System) Runtime() runtime.Runtime { return s.rt }

// ServerAddr returns the bootstrap server's address on this system's runtime.
func (s *System) ServerAddr() runtime.Addr { return s.serverAddr }

// SetTracer attaches a structured trace sink for peer lifecycle and lookup
// events. A nil tracer (the default) disables tracing; every emission is
// guarded by a single pointer check.
func (s *System) SetTracer(t *obs.Tracer) { s.tracer = t }

// trace emits one structured trace event when a tracer is attached.
func (s *System) trace(kind obs.Kind, qid uint64, from, to runtime.Addr, hops int, note string) {
	if s.tracer.Enabled() {
		s.tracer.Emit(kind, s.rt.Now(), qid, int(from), int(to), hops, note)
	}
}

// Stats returns a copy of the protocol counters.
func (s *System) Stats() SystemStats { return s.stats }

// Peer returns the peer at the given address, or nil.
func (s *System) Peer(a runtime.Addr) *Peer { return s.peerAt(a) }

// peerAt resolves an address against the dense peer table.
func (s *System) peerAt(a runtime.Addr) *Peer {
	if i := a.Index(); i >= 0 && i < len(s.peers) {
		return s.peers[i]
	}
	return nil
}

// setPeer registers a peer in the dense table, growing it as needed.
func (s *System) setPeer(p *Peer) {
	i := p.Addr.Index()
	for i >= len(s.peers) {
		s.peers = append(s.peers, nil)
	}
	s.peers[i] = p
	s.numPeers++
}

// removePeer clears a departed peer's table slot.
func (s *System) removePeer(a runtime.Addr) {
	if i := a.Index(); i >= 0 && i < len(s.peers) && s.peers[i] != nil {
		s.peers[i] = nil
		s.numPeers--
	}
	// Every departure — graceful or crash — arms the server's next
	// dead-registry sweep; see Server.sweepDead.
	if s.server != nil {
		s.server.detachDirty = true
	}
}

// Peers returns all live peers sorted by address. The dense table is already
// in address order, so this is a filtered copy.
func (s *System) Peers() []*Peer {
	out := make([]*Peer, 0, s.numPeers)
	for _, p := range s.peers {
		if p != nil && p.alive {
			out = append(out, p)
		}
	}
	return out
}

// TPeers returns all live t-peers sorted by ring id.
func (s *System) TPeers() []*Peer {
	var out []*Peer
	for _, p := range s.peers {
		if p != nil && p.alive && p.Role == TPeer {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(a, b *Peer) int {
		return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.Addr, b.Addr))
	})
	return out
}

// SPeers returns all live s-peers sorted by address.
func (s *System) SPeers() []*Peer {
	out := make([]*Peer, 0, s.numPeers)
	for _, p := range s.peers {
		if p != nil && p.alive && p.Role == SPeer {
			out = append(out, p)
		}
	}
	return out
}

// NumPeers returns the live peer count.
func (s *System) NumPeers() int { return s.numPeers }

// JoinStats reports how a join went.
type JoinStats struct {
	Role Role
	// Hops is the number of overlay hops the join request traveled: ring
	// forwarding hops for t-peers, tree walk hops for s-peers. This is
	// the quantity Eq. (1) of the paper models.
	Hops int
	// Latency is the time from contacting the server to being inserted.
	Latency runtime.Time
}

// JoinOpts describes a joining peer.
type JoinOpts struct {
	// Host is the physical topology node the peer lives on.
	Host int
	// Capacity is the relative access-link capacity (>= 1).
	Capacity float64
	// ForceRole pins the role instead of letting the server decide.
	ForceRole *Role
}

// Join starts the join protocol for a new peer. The returned peer is live
// immediately as a network endpoint but only becomes a functional member
// when done fires. done may be nil.
func (s *System) Join(opts JoinOpts, done func(*Peer, JoinStats)) *Peer {
	if opts.Capacity < 1 {
		opts.Capacity = 1
	}
	// The data and pending maps are allocated lazily on first write and the
	// child/watchdog tables are slices, so an idle peer costs one struct —
	// the difference between 10k peers and 1M peers fitting in memory.
	p := &Peer{
		Addr:     s.rt.NewAddr(),
		Host:     opts.Host,
		Capacity: opts.Capacity,
		sys:      s,
		alive:    true,
		tpeer:    NilRef,
		cp:       NilRef,
		join:     &pendingJoin{done: done},
	}
	s.setPeer(p)
	s.rt.Attach(p.Addr, runtime.Endpoint{Host: opts.Host, Capacity: opts.Capacity}, runtime.HandlerFunc(p.recv))

	p.join.start = s.rt.Now()
	req := serverJoinReq{
		Capacity:  opts.Capacity,
		ForceRole: -1,
	}
	if opts.ForceRole != nil {
		req.ForceRole = int8(*opts.ForceRole)
	}
	if s.Cfg.Landmarks > 0 {
		req.Coord = s.landmarkCoord(opts.Host)
	}
	// Keep the request and arm the retry timer before the first send: with
	// faults injected even this initial message can be lost, and without a
	// pending response there is no watchdog to notice.
	p.join.req = req
	p.armJoinTimer()
	p.send(s.serverAddr, req)
	return p
}

// landmarkCoord computes the peer's landmark bin: the landmark indices
// ordered by physical distance. In a deployment the peer would probe each
// landmark; the simulated probe returns exactly the shortest-path latency,
// so we read it from the topology directly.
func (s *System) landmarkCoord(host int) string {
	if s.server == nil {
		// Peer-only system: the landmark set lives with the real server in
		// another process, and topology awareness is a simulation feature.
		return ""
	}
	if c, ok := s.coordCache[host]; ok {
		return c
	}
	lms := s.server.landmarks
	type dl struct {
		idx int
		d   int64
	}
	pl := s.rt.Placement()
	ds := make([]dl, len(lms))
	for i, lm := range lms {
		var lat int64
		if pl == nil {
			// No physical model: every landmark is equidistant and the
			// coordinate degenerates to landmark index order.
			lat = 0
		} else if l, err := pl.HostLatency(host, lm); err == nil {
			lat = l
		} else {
			lat = 1 << 60
		}
		ds[i] = dl{idx: i, d: lat}
	}
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].d != ds[j].d {
			return ds[i].d < ds[j].d
		}
		return ds[i].idx < ds[j].idx
	})
	coord := make([]byte, 0, len(ds)*3)
	for _, e := range ds {
		coord = append(coord, byte('A'+e.idx/26), byte('A'+e.idx%26))
	}
	if s.coordCache == nil {
		s.coordCache = make(map[int]string)
	}
	s.coordCache[host] = string(coord)
	return s.coordCache[host]
}

// getOp pops a recycled op record or allocates a fresh one.
func (s *System) getOp() *op {
	if n := len(s.opFree); n > 0 {
		o := s.opFree[n-1]
		s.opFree = s.opFree[:n-1]
		return o
	}
	return new(op)
}

// putOp zeroes a finished op and returns it to the free list. Callers must
// guarantee no timer or handler still references the record; finishOp is the
// single release site and unschedules the op's timeout first.
func (s *System) putOp(o *op) {
	*o = op{}
	s.opFree = append(s.opFree, o)
}

// newTag allocates a system-unique tag: a client operation's qid or an
// internal request's tag (finger refresh, replica rounds).
func (s *System) newTag() uint64 {
	return s.newTags(1)
}

// newTags reserves n consecutive tags and returns the first.
func (s *System) newTags(n int) uint64 {
	first := s.nextQID + 1
	s.nextQID += uint64(n)
	return first
}

// contact charges one contact to origin's op qid. The origin must match:
// every process of a cluster numbers its qids from 1.
func (s *System) contact(origin Ref, qid uint64) {
	if o, ok := s.ops[qid]; ok && o.peer.Addr == origin.Addr {
		o.contacts++
	}
}

// opsOf returns p's in-flight qids (every peer's for nil) in ascending order.
func (s *System) opsOf(p *Peer) []uint64 {
	var qids []uint64
	for qid, o := range s.ops {
		if p == nil || o.peer == p {
			qids = append(qids, qid)
		}
	}
	sort.Slice(qids, func(i, j int) bool { return qids[i] < qids[j] })
	return qids
}

// TotalItems returns the number of data items stored across all live peers.
func (s *System) TotalItems() int {
	total := 0
	for _, p := range s.peers {
		if p != nil && p.alive {
			total += p.data.len()
		}
	}
	return total
}

// ItemsPerPeer returns the per-peer stored item counts (live peers, sorted
// by address), feeding the Fig. 4 distributions.
func (s *System) ItemsPerPeer() []int {
	peers := s.Peers()
	out := make([]int, len(peers))
	for i, p := range peers {
		out[i] = p.data.len()
	}
	return out
}
