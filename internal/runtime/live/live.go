// Package live is the wall-clock implementation of runtime.Runtime: real
// goroutines, channels and time.Timer instead of a discrete-event loop. It
// exists so the exact protocol code that reproduces the paper's figures under
// internal/simnet can also run as a real system: in one process over the
// loopback carrier in this package (cmd/hybridnode), or across processes when
// internal/runtime/net embeds this executor and swaps Send for TCP sockets.
//
// # Execution model
//
// The hybrid protocol in internal/core was written for run-to-completion
// semantics: a handler or timer callback runs alone, and peers share a
// System (statistics, contact counters, the server's membership tables), so
// per-node locking is not enough. The live runtime therefore serializes all
// protocol execution behind one executor mutex — the direct analogue of the
// DES dispatch loop — while keeping everything around it concurrent:
//
//   - message delivery is asynchronous: every send lands in one bounded run
//     queue per runtime, which one dispatcher goroutine drains in arrival
//     order, one delivery per turn of the executor lock (so FIFO per pair of
//     nodes); the queue and the address table have their own lock, so a
//     carrier's reader goroutines hand messages in through Deliver without
//     ever waiting on protocol execution;
//   - timers are real time.AfterFunc firings that take the executor lock
//     before running; the set of armed firings is executor state, so a
//     stopped timer that already won the race to fire is a no-op and Close
//     leaves none behind;
//   - external callers (cmd/hybridnode, tests) enter protocol state only
//     through Do/Await, which take the same lock.
//
// The guarantees relative to the DES runtime: per-node handler serialization
// still holds (trivially — everything is serialized), message order between a
// pair of nodes is FIFO instead of latency-sorted, timer firing order is real
// scheduler order instead of (time, seq) order, and nothing is deterministic.
// Protocol invariants (ring consistency, tree shape, data ownership) must
// hold under both; the conformance suite in internal/conformance asserts it.
package live

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runtime"
)

// Config tunes the live runtime.
type Config struct {
	// Seed seeds the runtime's RNG. The RNG is reproducible, but overall
	// execution is not: goroutine interleaving orders the draws.
	Seed int64
	// Delay is the artificial one-way delivery delay applied to every
	// Send, modeling a network round trip on the loopback transport.
	// Zero means deliver as fast as the run queue drains.
	Delay time.Duration
	// AwaitTimeout bounds a single Await call in wall-clock time.
	// Zero means the default of 30 seconds.
	AwaitTimeout time.Duration
}

// Runtime is a live, wall-clock implementation of runtime.Runtime.
//
// Clock, Transport and Rand must only be called under the execution
// guarantee — from inside a handler, a timer callback, or Do. Do, Await,
// Sleep, Deliver, NewAddr, Stop and Close may be called from any goroutine.
type Runtime struct {
	cfg   Config
	start time.Time

	mu     sync.Mutex // the executor lock: all protocol execution holds it
	rng    *rand.Rand
	closed bool
	// timers is the set of armed firings (Schedule and cfg.Delay sends).
	// Membership is what "pending" means: a firing or Unschedule removes the
	// entry, and Close stops and clears the rest so no closure keeps a
	// closed runtime reachable until its timer would have gone off.
	timers map[*time.Timer]struct{}

	// The address table and the run queue have their own lock (not the
	// executor's) because a carrier's readers must queue deliveries without
	// ever waiting on protocol execution. Lock order: mu before qmu; Deliver
	// takes qmu alone. nodes is nil once Stop has run.
	qmu     sync.Mutex
	qcond   *sync.Cond // signalled when queue grows or nodes goes nil
	nodes   map[runtime.Addr]*node
	queue   []delivery
	dropped int // deliveries refused because the queue was full

	// next is atomic so a carrier can allocate for remote processes from
	// its reader goroutines, outside the executor lock.
	next atomic.Int64

	wg sync.WaitGroup // the dispatcher
}

// serverAddr is the bootstrap address handed to the first System on this
// runtime; NewAddr starts right above it, mirroring the DES runtime.
const serverAddr runtime.Addr = 0

// runQueueMax bounds the run queue. A delivery that finds it full is
// dropped and counted — the newest message loses, like a packet at a full
// router queue; what is already queued keeps its order. A handler sends a
// few messages per delivery and the dispatcher drains one per lock turn, so
// the queue stays a few dozen deep under the kv benchmark's load; the bound
// is for a process that stops draining, not for normal bursts.
const runQueueMax = 1 << 16

// node is one attachment of an address. A delivery carries the node it was
// queued for, so one queued before a Detach, or before a Detach and a fresh
// Attach of the same address, finds a different node and is dropped.
type node struct{ h runtime.Handler }

type delivery struct {
	n        *node
	from, to runtime.Addr
	msg      any
}

// New creates a live runtime.
func New(cfg Config) *Runtime {
	if cfg.AwaitTimeout <= 0 {
		cfg.AwaitTimeout = 30 * time.Second
	}
	r := &Runtime{
		cfg:    cfg,
		start:  time.Now(),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		timers: make(map[*time.Timer]struct{}),
		nodes:  make(map[runtime.Addr]*node),
	}
	r.qcond = sync.NewCond(&r.qmu)
	r.next.Store(int64(serverAddr))
	r.wg.Add(1)
	go r.dispatch()
	return r
}

// Now returns the wall-clock time since the runtime was created.
func (r *Runtime) Now() runtime.Time {
	return runtime.Time(time.Since(r.start) / time.Microsecond)
}

// Schedule arms a wall-clock timer. The callback takes the executor lock
// before running, so it has the same isolation as a message handler.
func (r *Runtime) Schedule(d runtime.Time, fn func()) runtime.Handle {
	if d < 0 {
		panic(fmt.Sprintf("live: negative delay %v", d))
	}
	if r.closed {
		return runtime.Handle{}
	}
	return runtime.MakeHandle(r.after(time.Duration(d)*time.Microsecond, fn), 0)
}

// after arms one tracked firing of fn under the executor lock.
func (r *Runtime) after(d time.Duration, fn func()) *time.Timer {
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		// Not in the set: cancelled, or the runtime closed, after this
		// firing had already won the race to its goroutine.
		if _, ok := r.timers[t]; !ok {
			return
		}
		delete(r.timers, t)
		fn()
	})
	r.timers[t] = struct{}{}
	return t
}

// Unschedule cancels a pending firing. A firing that already ran, or was
// cancelled before, reports false.
func (r *Runtime) Unschedule(h runtime.Handle) bool {
	if !r.Scheduled(h) {
		return false
	}
	t := h.Impl().(*time.Timer)
	t.Stop()
	delete(r.timers, t)
	return true
}

// Scheduled reports whether the firing is still pending.
func (r *Runtime) Scheduled(h runtime.Handle) bool {
	t, ok := h.Impl().(*time.Timer)
	if ok {
		_, ok = r.timers[t]
	}
	return ok
}

// Attach registers a handler. The endpoint is recorded for interface
// compatibility; neither carrier has a physical placement, so Host and
// Capacity do not shape delivery. Messages still queued for an earlier
// attachment of the address are not delivered to this one.
func (r *Runtime) Attach(a runtime.Addr, _ runtime.Endpoint, h runtime.Handler) {
	if r.closed {
		return
	}
	r.qmu.Lock()
	r.nodes[a] = &node{h: h}
	r.qmu.Unlock()
}

// Detach removes an address; messages queued to it are dropped, exactly
// like packets to a crashed host.
func (r *Runtime) Detach(a runtime.Addr) {
	r.qmu.Lock()
	delete(r.nodes, a)
	r.qmu.Unlock()
}

// Attached reports whether the address has a live handler on this runtime.
func (r *Runtime) Attached(a runtime.Addr) bool {
	r.qmu.Lock()
	defer r.qmu.Unlock()
	return r.nodes[a] != nil
}

// Send enqueues msg for delivery. Size only matters to transports that model
// serialization delay; the loopback transport ignores it. With cfg.Delay set,
// delivery is deferred by that much wall time, and the destination is
// resolved when the delay fires, not when Send is called: an address that
// detaches and re-attaches while the message is in flight is live again and
// must receive it, exactly as a packet addressed to a rebooted host would
// arrive. (Capturing the *node* at send time silently dropped such messages
// into the old incarnation's mailbox.)
func (r *Runtime) Send(from, to runtime.Addr, size int, msg any) {
	if r.closed {
		return
	}
	if r.cfg.Delay > 0 {
		r.after(r.cfg.Delay, func() { r.Deliver(from, to, msg) })
		return
	}
	r.Deliver(from, to, msg)
}

// SendLocal enqueues a self-message; it is delivered like any other, on a
// fresh dispatcher turn.
func (r *Runtime) SendLocal(a runtime.Addr, msg any) { r.Deliver(a, a, msg) }

// Deliver queues msg for the current attachment of to, or drops it when
// the address is not attached here — a packet to a dead host — or the run
// queue is full (see runQueueMax). It takes only the queue lock, never the
// executor's, so it is the entry point for a carrier's reader goroutines as
// well as for Send.
func (r *Runtime) Deliver(from, to runtime.Addr, msg any) {
	r.qmu.Lock()
	defer r.qmu.Unlock()
	n := r.nodes[to]
	switch {
	case n == nil:
	case len(r.queue) >= runQueueMax:
		r.dropped++
	default:
		r.queue = append(r.queue, delivery{n: n, from: from, to: to, msg: msg})
		r.qcond.Signal()
	}
}

// dispatch is the runtime's one delivery goroutine: wait for the queue to
// fill, take the executor lock, pop the head and hand it to its handler if
// its attachment is still current, release, repeat. It pops only while
// holding the executor lock, so nothing leaves the queue while Do or a
// handler runs, and it never waits on the queue lock's condition while
// holding the executor lock, which a sender inside Do already holds.
func (r *Runtime) dispatch() {
	defer r.wg.Done()
	for {
		r.qmu.Lock()
		for len(r.queue) == 0 && r.nodes != nil {
			r.qcond.Wait()
		}
		r.qmu.Unlock()

		r.mu.Lock()
		r.qmu.Lock()
		if r.nodes == nil {
			r.qmu.Unlock()
			r.mu.Unlock()
			return
		}
		d := r.queue[0]
		r.queue[0] = delivery{} // the backing array must not pin a delivered message
		r.queue = r.queue[1:]
		current := r.nodes[d.to] == d.n
		r.qmu.Unlock()
		if current {
			d.n.h.Recv(d.from, d.msg)
		}
		r.mu.Unlock()
	}
}

// Rand returns the runtime's RNG (use only under the execution guarantee).
func (r *Runtime) Rand() runtime.RNG { return r.rng }

// NewAddr allocates the next peer address: 1, 2, … — the same sequence the
// DES runtime produces, which the conformance tests rely on to compare runs.
func (r *Runtime) NewAddr() runtime.Addr { return runtime.Addr(r.next.Add(1)) }

// ServerAddr returns the bootstrap server's address.
func (r *Runtime) ServerAddr() runtime.Addr { return serverAddr }

// Placement returns nil: neither carrier has a physical model, so the
// protocol falls back to locality-free landmark assignment.
func (r *Runtime) Placement() runtime.Placement { return nil }

// Do runs fn under the executor lock, serialized against every handler and
// timer callback. It is the only way external code may touch protocol state.
func (r *Runtime) Do(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn()
}

// Await polls cond under the executor lock until it reports true, yielding
// between polls so mailboxes and timers can run. It fails after the
// configured wall-clock timeout, or at once when cond fails on a closed
// runtime, which nothing will ever run again.
func (r *Runtime) Await(cond func() bool) error {
	deadline := time.Now().Add(r.cfg.AwaitTimeout)
	for {
		r.mu.Lock()
		ok := cond()
		closed := r.closed
		r.mu.Unlock()
		if ok {
			return nil
		}
		if closed {
			return fmt.Errorf("live: condition not reached: runtime closed")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("live: condition not reached within %v", r.cfg.AwaitTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Sleep blocks the caller for d of wall-clock time while the runtime keeps
// executing. It must not be called while holding the executor lock (i.e.
// from inside Do or a handler).
func (r *Runtime) Sleep(d runtime.Time) {
	time.Sleep(time.Duration(d) * time.Microsecond)
}

// Closed reports whether Stop has run (use under the execution guarantee).
func (r *Runtime) Closed() bool { return r.closed }

// Stop ends protocol execution without waiting for it to drain: no handler
// or timer callback starts afterwards, every armed firing is stopped and
// forgotten, and the run queue is emptied and the dispatcher told to exit.
// It reports whether this call was the one that stopped the runtime. A
// carrier that must release its own blocking resources before its
// goroutines can finish calls Stop, releases them, then Close.
func (r *Runtime) Stop() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.closed = true
	for t := range r.timers {
		t.Stop()
	}
	clear(r.timers)
	r.qmu.Lock()
	r.nodes, r.queue = nil, nil
	r.qcond.Broadcast()
	r.qmu.Unlock()
	return true
}

// Close shuts the runtime down (see Stop) and blocks until the dispatcher
// has exited. It is idempotent.
func (r *Runtime) Close() {
	r.Stop()
	r.wg.Wait()
}

var _ runtime.Runtime = (*Runtime)(nil)
