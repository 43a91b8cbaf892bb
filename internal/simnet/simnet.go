// Package simnet is the overlay message layer: it delivers messages between
// peers hosted on physical topology nodes, charging each message the
// shortest-path propagation latency plus an access-link serialization delay
// derived from the endpoint with the lower link capacity.
//
// Together with sim and topology it replaces the NS2 substrate the paper ran
// on. Protocol code never sees the physical network; it only calls Send and
// implements Handler.
package simnet

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Addr identifies a peer endpoint. Each overlay peer is hosted on one
// physical topology node; the mapping is set at Attach time. It is an alias
// for runtime.Addr: simnet is the discrete-event implementation of the
// runtime.Transport the protocols are written against.
type Addr = runtime.Addr

// None is the null address.
const None = runtime.None

// Handler receives delivered messages inside the simulation loop.
type Handler = runtime.Handler

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc = runtime.HandlerFunc

// LinkKey identifies an undirected physical link by its ordered endpoints.
type LinkKey struct {
	A, B int
}

func linkKey(a, b int) LinkKey {
	if a > b {
		a, b = b, a
	}
	return LinkKey{A: a, B: b}
}

// Stats aggregates network-level accounting for a run. MessagesSent counts
// every send, including self-deliveries via SendLocal (which are additionally
// broken out under LocalSent), so MessagesDelivered+MessagesDropped can never
// exceed MessagesSent.
type Stats struct {
	MessagesSent      uint64
	MessagesDelivered uint64
	MessagesDropped   uint64
	BytesSent         uint64
	LocalSent         uint64
}

// baseCapacity is the slowest access-link capacity in bytes per simulated
// microsecond. The paper's slowest links are dial-up-class; 0.015 B/us ~=
// 120 kbit/s.
const baseCapacity = 0.015

// Config tunes the message layer.
type Config struct {
	// TrackLinkStress enables per-physical-link message counting. It
	// walks the physical path of every message, so leave it off for the
	// large sweeps that do not report link stress.
	TrackLinkStress bool
}

// DefaultConfig returns the settings used by the experiments.
func DefaultConfig() Config {
	return Config{}
}

// Network delivers overlay messages over a physical topology.
//
// Endpoint state is kept in flat slices indexed by Addr.Index() rather than
// maps: runtimes allocate addresses densely from 0, so the tables stay dense,
// every per-message lookup is a bounds-checked load, and a million attached
// peers cost three machine words each instead of three map entries.
type Network struct {
	Eng  *sim.Engine
	Topo *topology.Graph

	cfg      Config
	handlers []Handler         // Addr.Index() -> handler (nil = detached)
	host     []int32           // Addr.Index() -> physical node (-1 = detached)
	capacity []float64         // Addr.Index() -> relative access-link capacity
	stress   map[LinkKey]int64 // physical link -> messages carried
	stats    Stats
	tracer   *obs.Tracer
	faults   *Faults

	// free is the delivery-event free list. Delivery events are pooled for
	// the same reason the engine pools its Event structs: scheduling one
	// delivery per overlay message through a fresh closure was the single
	// largest allocation site in the whole simulator. A pooled delivery
	// carries its pre-bound run thunk, so steady-state sends allocate
	// nothing — including the duplicated copies the fault layer injects,
	// which schedule through the same pool.
	free []*delivery
}

// delivery is one pooled in-flight message. run is bound to dispatch once,
// when the struct is first created, and reused across recycles.
type delivery struct {
	n        *Network
	from, to Addr
	note     string
	msg      any
	run      func()
}

// dispatch delivers (or drops) the message, releasing the struct back to the
// pool first so handlers that send messages can reuse it immediately.
func (dv *delivery) dispatch() {
	n, from, to, note, msg := dv.n, dv.from, dv.to, dv.note, dv.msg
	dv.msg = nil
	dv.note = ""
	n.free = append(n.free, dv)
	if h := n.handlerOf(to); h != nil {
		n.stats.MessagesDelivered++
		n.tracer.Emit(obs.EvMsgDeliver, n.Eng.Now(), 0, int(from), int(to), 0, note)
		h.Recv(from, msg)
		return
	}
	n.stats.MessagesDropped++
	n.tracer.Emit(obs.EvMsgDrop, n.Eng.Now(), 0, int(from), int(to), 0, note)
}

// getDelivery pops a pooled delivery (or makes one, binding its run thunk).
func (n *Network) getDelivery() *delivery {
	if ln := len(n.free); ln > 0 {
		dv := n.free[ln-1]
		n.free[ln-1] = nil
		n.free = n.free[:ln-1]
		return dv
	}
	dv := &delivery{n: n}
	dv.run = dv.dispatch
	return dv
}

// New creates a network over the given engine and topology.
func New(eng *sim.Engine, topo *topology.Graph, cfg Config) *Network {
	return &Network{
		Eng:    eng,
		Topo:   topo,
		cfg:    cfg,
		stress: make(map[LinkKey]int64),
	}
}

// grow extends the endpoint tables to cover index i.
func (n *Network) grow(i int) {
	for len(n.handlers) <= i {
		n.handlers = append(n.handlers, nil)
		n.host = append(n.host, -1)
		n.capacity = append(n.capacity, 0)
	}
}

// handlerOf returns the live handler for an address, or nil.
func (n *Network) handlerOf(a Addr) Handler {
	if i := a.Index(); i >= 0 && i < len(n.handlers) {
		return n.handlers[i]
	}
	return nil
}

// hostOf returns the physical host for an address, or -1 if detached.
func (n *Network) hostOf(a Addr) int {
	if i := a.Index(); i >= 0 && i < len(n.host) {
		return int(n.host[i])
	}
	return -1
}

// Attach registers a peer at the endpoint's physical host. The endpoint
// capacity is the relative access-link speed (1 = slowest class; the paper's
// fastest class is 10x the slowest).
func (n *Network) Attach(a Addr, ep runtime.Endpoint, h Handler) {
	if ep.Host < 0 || ep.Host >= n.Topo.NumNodes() {
		panic(fmt.Sprintf("simnet: host %d out of range", ep.Host))
	}
	if ep.Capacity < 1 {
		ep.Capacity = 1
	}
	i := a.Index()
	if i < 0 {
		panic(fmt.Sprintf("simnet: attaching invalid address %d", a))
	}
	n.grow(i)
	n.handlers[i] = h
	n.host[i] = int32(ep.Host)
	n.capacity[i] = ep.Capacity
}

// Detach removes a peer; in-flight messages to it are dropped on delivery.
// This models an abrupt crash.
func (n *Network) Detach(a Addr) {
	if i := a.Index(); i >= 0 && i < len(n.handlers) {
		n.handlers[i] = nil
		n.host[i] = -1
		n.capacity[i] = 0
	}
}

// Attached reports whether the address currently has a live handler.
func (n *Network) Attached(a Addr) bool {
	return n.handlerOf(a) != nil
}

// Host returns the physical node hosting the peer, or -1 if detached.
func (n *Network) Host(a Addr) int { return n.hostOf(a) }

// Capacity returns the peer's relative access-link capacity (0 if detached).
func (n *Network) Capacity(a Addr) float64 {
	if i := a.Index(); i >= 0 && i < len(n.capacity) {
		return n.capacity[i]
	}
	return 0
}

// Stats returns a copy of the accounting counters; mutating the returned
// value does not affect the network.
func (n *Network) Stats() Stats { return n.stats }

// SetTracer attaches a trace event sink for message send/deliver/drop events.
// A nil tracer (the default) disables tracing at the cost of one pointer
// check per message.
func (n *Network) SetTracer(t *obs.Tracer) { n.tracer = t }

// SetFaults attaches a fault-injection policy to every subsequent Send. A
// nil value (the default) disables the layer at the cost of one pointer
// check per message; SendLocal (in-process self-delivery) is never faulted.
func (n *Network) SetFaults(f *Faults) { n.faults = f }

// Faults returns the attached fault layer, or nil.
func (n *Network) Faults() *Faults { return n.faults }

// LinkStress returns a copy of the per-link message counts (only populated
// when TrackLinkStress is set); callers may freely mutate the returned map.
func (n *Network) LinkStress() map[LinkKey]int64 {
	out := make(map[LinkKey]int64, len(n.stress))
	for k, v := range n.stress {
		out[k] = v
	}
	return out
}

// MaxLinkStress returns the highest per-link message count.
func (n *Network) MaxLinkStress() int64 {
	var max int64
	for _, v := range n.stress {
		if v > max {
			max = v
		}
	}
	return max
}

// Delay returns the latency a message of the given size would experience
// between two attached peers right now.
func (n *Network) Delay(from, to Addr, size int) (sim.Time, error) {
	hf := n.hostOf(from)
	if hf < 0 {
		return 0, fmt.Errorf("simnet: sender %d not attached", from)
	}
	ht := n.hostOf(to)
	if ht < 0 {
		return 0, fmt.Errorf("simnet: receiver %d not attached", to)
	}
	prop, err := n.Topo.Latency(hf, ht)
	if err != nil {
		return 0, err
	}
	// The transfer speed between two peers is bounded by the slower
	// access link (paper, section 5.1).
	cap := n.capacity[from.Index()]
	if c := n.capacity[to.Index()]; c < cap {
		cap = c
	}
	ser := float64(size) / (baseCapacity * cap)
	return sim.Time(prop) + sim.Time(ser), nil
}

// Send schedules delivery of msg from one peer to another. size is the
// message size in bytes and only affects the serialization delay. If the
// destination is detached now or at delivery time the message is dropped,
// exactly as a packet to a crashed host would be.
func (n *Network) Send(from, to Addr, size int, msg any) {
	n.stats.MessagesSent++
	n.stats.BytesSent += uint64(size)
	var note string
	if n.tracer.Enabled() {
		note = fmt.Sprintf("%T", msg)
		n.tracer.Emit(obs.EvMsgSend, n.Eng.Now(), 0, int(from), int(to), 0, note)
	}

	d, err := n.Delay(from, to, size)
	if err != nil {
		n.stats.MessagesDropped++
		n.tracer.Emit(obs.EvMsgDrop, n.Eng.Now(), 0, int(from), int(to), 0, note)
		return
	}
	copies := 1
	if n.faults != nil {
		v := n.faults.apply(n.Eng.Now(), n.hostOf(from), n.hostOf(to), from, to)
		if v.drop {
			// An injected loss looks exactly like a packet that never
			// arrived: the send was counted, the delivery never happens.
			n.stats.MessagesDropped++
			n.tracer.Emit(obs.EvMsgDrop, n.Eng.Now(), 0, int(from), int(to), 0, note)
			return
		}
		if v.dup {
			// The duplicate counts as its own send so the invariant
			// delivered+dropped <= sent keeps holding.
			copies = 2
			n.stats.MessagesSent++
			n.stats.BytesSent += uint64(size)
			n.schedule(d+v.dupExtra, from, to, note, msg)
		}
		d += v.extra
	}
	if n.cfg.TrackLinkStress {
		if path, err := n.Topo.Path(n.hostOf(from), n.hostOf(to)); err == nil {
			for i := 1; i < len(path); i++ {
				n.stress[linkKey(path[i-1], path[i])] += int64(copies)
			}
		}
	}
	n.schedule(d, from, to, note, msg)
}

// schedule enqueues one delivery attempt after delay d; the message is
// dropped if the destination handler is gone by delivery time. The event
// rides a pooled delivery struct instead of a fresh closure.
func (n *Network) schedule(d sim.Time, from, to Addr, note string, msg any) {
	dv := n.getDelivery()
	dv.from, dv.to, dv.note, dv.msg = from, to, note, msg
	n.Eng.After(d, dv.run)
}

// SendLocal schedules a message from a peer to itself with negligible delay.
// Protocols use it to defer work to a fresh event without network cost. Local
// sends count toward MessagesSent (and are broken out under LocalSent) so the
// delivered/dropped totals always have a matching send.
func (n *Network) SendLocal(a Addr, msg any) {
	n.stats.MessagesSent++
	n.stats.LocalSent++
	n.schedule(sim.Microsecond, a, a, "local", msg)
}
