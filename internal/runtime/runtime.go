// Package runtime defines the narrow waist between the hybrid protocol and
// whatever executes it. The protocol in internal/core needs exactly four
// things from its environment: a clock with cancellable timers (Clock), a
// message transport with opaque peer addresses (Transport), a deterministic
// random source (RNG), and a way to drive execution until a condition holds
// (the Runtime driver methods). Everything else — discrete-event simulation,
// goroutines, wall clocks, physical topologies — lives behind these
// interfaces.
//
// Three implementations exist: internal/simnet provides the deterministic
// discrete-event runtime the paper's experiments run on (byte-identical
// output for a given seed); internal/runtime/live is the one wall-clock
// executor, backed by goroutines, mailboxes and time.Timer, and runs the same
// protocol code as a real cluster inside one process; internal/runtime/net
// embeds it and adds sockets, so the cluster can span processes over TCP.
package runtime

import "fmt"

// Time is a timestamp in microseconds since the start of the run. Under the
// discrete-event runtime it is simulated time; under the live runtime it is
// wall-clock time since the runtime was created.
type Time int64

// Common durations, expressed in microseconds.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders the time as seconds with microsecond precision. Negative
// times (deltas, uninitialized sentinels) carry a single leading sign instead
// of the per-component signs integer division would produce ("-500µs" must
// render "-0.000500s", not "0.-00500s"). The magnitude is computed in uint64
// so even math.MinInt64 renders correctly.
func (t Time) String() string {
	u := uint64(t)
	sign := ""
	if t < 0 {
		sign = "-"
		u = -u
	}
	return fmt.Sprintf("%s%d.%06ds", sign, u/uint64(Second), u%uint64(Second))
}

// Seconds converts the timestamp to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Addr identifies a peer endpoint. Addresses are opaque to the protocol: the
// only operations it may rely on are comparison, use as a map key, and Index.
// Each runtime allocates its own addresses via NewAddr and designates one
// bootstrap server address via ServerAddr.
type Addr int

// None is the null address.
const None Addr = -1

// Index returns the address's dense non-negative integer identity, or -1 for
// None. Every runtime in this repository allocates addresses densely from
// small integers (the bootstrap server at 0, peers at 1, 2, 3, ...), and this
// accessor is the sanctioned way to exploit that: flat array-backed peer and
// routing tables index by Addr.Index() instead of hashing the address into a
// map, while the Addr type itself stays opaque. A runtime implementation that
// broke the density contract would have to change this accessor too.
func (a Addr) Index() int { return int(a) }

// Handler receives delivered messages. The runtime guarantees handlers for a
// given address are invoked one at a time (per-node serialized execution);
// the discrete-event runtime additionally serializes across all addresses.
type Handler interface {
	Recv(from Addr, msg any)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from Addr, msg any)

// Recv calls f(from, msg).
func (f HandlerFunc) Recv(from Addr, msg any) { f(from, msg) }

// Endpoint describes where and how a peer attaches to the transport. Host is
// an index into the runtime's physical placement (0 when the runtime has no
// notion of placement); Capacity is the relative access-link speed (1 = the
// slowest class; the paper's fastest class is 10x the slowest).
type Endpoint struct {
	Host     int
	Capacity float64
}

// Handle refers to one scheduled firing on a Clock. The zero Handle is valid
// and refers to nothing: Unschedule and Scheduled on it are no-ops. A Handle
// is only meaningful to the Clock that issued it.
//
// Handles are plain values built from an implementation pointer plus an
// epoch; storing a pointer in the impl field does not allocate, which keeps
// timer churn allocation-free on the discrete-event hot paths.
type Handle struct {
	impl  any
	epoch uint32
}

// MakeHandle builds a Handle for a Clock implementation. Protocol code never
// calls this; only Clock implementations do.
func MakeHandle(impl any, epoch uint32) Handle {
	return Handle{impl: impl, epoch: epoch}
}

// Impl returns the implementation pointer the handle was built with.
func (h Handle) Impl() any { return h.impl }

// Epoch returns the epoch the handle was built with.
func (h Handle) Epoch() uint32 { return h.epoch }

// Zero reports whether this is the zero Handle.
func (h Handle) Zero() bool { return h.impl == nil }

// Clock schedules callbacks. Implementations invoke callbacks with the same
// serialization guarantee as message handlers: no two callbacks (or
// callback/handler pairs touching the same node) run concurrently.
type Clock interface {
	// Now returns the current time.
	Now() Time
	// Schedule runs fn once, d from now. Negative d panics: it is always a
	// protocol bug, never a recoverable condition.
	Schedule(d Time, fn func()) Handle
	// Unschedule prevents a scheduled firing. Unscheduling a zero handle,
	// or one whose callback already ran or was already cancelled, is a
	// no-op; it reports whether this call removed a pending firing.
	Unschedule(h Handle) bool
	// Scheduled reports whether the firing h refers to is still pending.
	Scheduled(h Handle) bool
}

// RNG is the random source the protocol draws from. The discrete-event
// runtime hands out a seeded *math/rand.Rand so runs are reproducible; the
// live runtime may use any source. *math/rand.Rand satisfies RNG.
type RNG interface {
	Intn(n int) int
	Uint64() uint64
	Float64() float64
	Perm(n int) []int
}

// Transport moves messages between attached addresses. Send is asynchronous
// and unreliable: messages to detached or crashed addresses are silently
// dropped, exactly as a packet to a dead host would be.
type Transport interface {
	// Attach registers a handler for an address at the given endpoint.
	Attach(a Addr, ep Endpoint, h Handler)
	// Detach removes an address; in-flight messages to it are dropped on
	// delivery. This models an abrupt crash.
	Detach(a Addr)
	// Attached reports whether the address currently has a live handler.
	Attached(a Addr) bool
	// Send delivers msg from one address to another after a
	// transport-defined delay. size is the message size in bytes and only
	// affects the delay, never the payload.
	Send(from, to Addr, size int, msg any)
	// SendLocal delivers a message from an address to itself with
	// negligible delay; protocols use it to defer work to a fresh event.
	SendLocal(a Addr, msg any)
}

// Placement exposes the physical topology underneath the transport: the
// hosts peers may live on, and the host latencies landmark binning measures.
// A runtime with no physical model returns nil from Placement, and the
// protocol falls back to locality-free behavior.
type Placement interface {
	// StubHosts returns the hosts peers may be placed on, in ascending
	// order.
	StubHosts() []int
	// HostLatency returns the propagation latency between two hosts in
	// microseconds.
	HostLatency(a, b int) (int64, error)
}

// Runtime is everything the protocol needs from its environment. It bundles
// the clock and transport with address allocation, randomness, optional
// placement, and the driver methods that external callers (experiments,
// servers, tests) use to run protocol operations to completion.
type Runtime interface {
	Clock
	Transport

	// Rand returns the runtime's random source.
	Rand() RNG
	// NewAddr allocates a fresh, never-before-used peer address.
	NewAddr() Addr
	// ServerAddr returns the address of the bootstrap server. It is part
	// of the runtime's bootstrap information, fixed for the runtime's
	// lifetime, and never equals any address returned by NewAddr.
	ServerAddr() Addr
	// Placement returns the physical placement model, or nil if the
	// runtime has none.
	Placement() Placement

	// Do runs fn with the runtime's execution guarantee: fn does not run
	// concurrently with any handler or timer callback. External callers
	// must wrap every direct touch of protocol state in Do; code already
	// running inside a handler or callback must not.
	Do(fn func())
	// Await drives the runtime until cond reports true, then returns nil.
	// cond is evaluated under the same guarantee as Do. Await returns an
	// error if the runtime can make no further progress (discrete-event:
	// event queue drained or step budget exceeded; live: deadline or
	// closed).
	Await(cond func() bool) error
	// Sleep lets the runtime run for d without a completion condition.
	Sleep(d Time)
}
