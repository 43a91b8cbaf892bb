// Package net is the TCP-socket carrier for the wall-clock executor of
// internal/runtime/live: the same hybrid protocol that runs under the
// discrete-event simulation (internal/simnet) and in one process on live's
// loopback carrier here runs across real sockets, so a cluster can span
// processes and machines (cmd/hybridnode -addr/-bootstrap).
//
// # Topology
//
// Every process listens on one TCP endpoint and may host any number of
// protocol addresses. One process is the bootstrap: it hosts address 0 (the
// protocol's well-known server) and keeps the two pieces of cluster-global
// state the runtime contract requires:
//
//   - address allocation: NewAddr on a non-bootstrap process is a JOIN-ALLOC
//     request to the bootstrap, which hands out dense addresses 1, 2, 3, …
//     from a single counter. This preserves the Addr.Index density contract
//     (flat array-backed routing tables) across process boundaries. It is
//     the only request in the package, and the only code that waits on
//     another process.
//   - the directory: which endpoint hosts each address, and whether it is
//     attached. Every process keeps a copy. Attach and Detach update the
//     local copy and, on a worker, post a register or detach frame to the
//     bootstrap without waiting; the bootstrap applies every change — its
//     own, a worker's, and a detach for each address of a worker whose last
//     connection dropped (TCP as the failure detector of last resort) — and
//     posts the same frame, in the order applied, to every other worker. A
//     worker's connection starts with the whole live directory. Attached is
//     "attached here, or alive in the copy" on every process.
//
// Send reads only the local copy. On a worker a miss posts the frame to the
// bootstrap, which relays a data frame meant for another process unchanged
// (it recorded the address's endpoint when it allocated it); on the
// bootstrap a miss drops the frame.
//
// # Execution model
//
// Runtime embeds *live.Runtime, so the executor lock, run queue, timers,
// Do/Await/Sleep and the address counter are that package's, not copies of
// them. This package adds only what sockets need: Attach, Detach, Attached,
// NewAddr and Close call the embedded method and then do their directory or
// connection work, and Send replaces the loopback hand-off: every message —
// including one whose destination is hosted by the sending process — is
// encoded by the codec (codec.go), framed in the wire envelope (wire.go),
// and posted to the outbox of the destination process's endpoint (conn.go).
// The uniform path means the conformance suite exercises the codec and
// framing even in a single process.
//
// An outbox is a bounded FIFO and one writer goroutine, the only code that
// dials its endpoint or writes to that connection. Everything else only
// posts to it, so the executor never waits on a socket, and one peer that
// stops reading stalls its own writer, not the peers of the process.
//
// Each connection has exactly one reader goroutine, and it never blocks on
// protocol execution: data frames are decoded and handed to live's Deliver,
// which takes only the run queue's lock (dropped if the address is not
// attached here — a packet to a dead host), and control frames touch only
// the directory, the outboxes and the atomic address counter, never the
// executor.
//
// Message-level guarantees match the live runtime: sends are asynchronous
// and unreliable (a miss on the bootstrap, a full outbox, an endpoint that
// stays unreachable through the redial schedule, or a failed write drops
// messages silently), and the frames to one endpoint leave in the order
// they were posted, across reconnects too, because one writer sends them.
// Two consequences of the pushed directory: Attach returns before the
// bootstrap has marked the address alive, though every later frame from
// the process still arrives after the register, since they share one
// outbox; and a frame relayed through the bootstrap can be overtaken by a
// later frame sent directly to the same address.
package net

import (
	"errors"
	"fmt"
	nnet "net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runtime"
	"repro/internal/runtime/live"
)

// The transport's I/O bounds: one connection attempt, one alloc request,
// one frame write.
const (
	dialTimeout  = 5 * time.Second
	rpcTimeout   = 5 * time.Second
	writeTimeout = 10 * time.Second
)

// allocAttempts is how many alloc requests NewAddr makes before it panics.
const allocAttempts = 3

// Config tunes the socket runtime.
type Config struct {
	// Listen is the TCP endpoint to listen on, e.g. "127.0.0.1:7000" or
	// "127.0.0.1:0" (tests). Required.
	Listen string
	// Advertise is the endpoint other processes dial to reach this one. It
	// defaults to the listener's address, with an unspecified host
	// rewritten to 127.0.0.1 — set it explicitly when crossing machines.
	Advertise string
	// Bootstrap is the bootstrap process's advertised endpoint. Empty means
	// this process IS the bootstrap: it hosts address 0, allocates
	// addresses and keeps the authoritative directory.
	Bootstrap string
	// Messages are the codec prototypes, in the cluster-wide shared order
	// (core.WireMessages). Required.
	Messages []any
	// Seed seeds the runtime's RNG (execution stays nondeterministic).
	Seed int64
	// AwaitTimeout bounds a single Await call. Default 30s.
	AwaitTimeout time.Duration
	// Logf receives transport diagnostics (encode failures, bad frames).
	// Defaults to stderr.
	Logf func(format string, args ...any)
}

// Runtime is the TCP implementation of runtime.Runtime: the live executor
// plus sockets. The calling rules are the embedded runtime's — Transport and
// NewAddr under the execution guarantee, Close from any goroutine.
type Runtime struct {
	*live.Runtime

	cfg    Config
	codec  *Codec
	isBoot bool
	self   string // advertised endpoint
	boot   string // bootstrap endpoint (== self on the bootstrap)

	ln nnet.Listener

	dir *directory

	// cmu guards the outboxes (the map and every queue in it), the set of
	// open connections, dialed and accepted, and connsDown.
	cmu       sync.Mutex
	outboxes  map[string]*outbox
	open      map[*wconn]struct{}
	connsDown bool // set by Close before sweeping, so no conn or writer starts after it

	// allocs hands alloc responses from the readers to NewAddr, which skips
	// any whose MsgID is not its current request's; it has room for a late
	// answer to each earlier attempt.
	allocs chan envelope
	msgID  atomic.Uint64

	closedCh chan struct{}
	wg       sync.WaitGroup // accept loop, connection readers, outbox writers
}

// New creates a socket runtime: it binds the listener, starts accepting,
// and (on non-bootstrap processes) is immediately able to reach the
// bootstrap at cfg.Bootstrap.
func New(cfg Config) (*Runtime, error) {
	if cfg.Listen == "" {
		return nil, errors.New("net: Config.Listen is required")
	}
	if len(cfg.Messages) == 0 {
		return nil, errors.New("net: Config.Messages is required (see core.WireMessages)")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "net: "+format+"\n", args...)
		}
	}
	codec, err := NewCodec(cfg.Messages...)
	if err != nil {
		return nil, err
	}
	ln, err := nnet.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("net: listen %s: %w", cfg.Listen, err)
	}
	r := &Runtime{
		Runtime:  live.New(live.Config{Seed: cfg.Seed, AwaitTimeout: cfg.AwaitTimeout}),
		cfg:      cfg,
		codec:    codec,
		isBoot:   cfg.Bootstrap == "",
		ln:       ln,
		dir:      newDirectory(),
		outboxes: make(map[string]*outbox),
		open:     make(map[*wconn]struct{}),
		allocs:   make(chan envelope, allocAttempts),
		closedCh: make(chan struct{}),
	}
	r.self = cfg.Advertise
	if r.self == "" {
		r.self = advertisable(ln.Addr())
	}
	r.boot = cfg.Bootstrap
	if r.isBoot {
		r.boot = r.self
	}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

// advertisable rewrites a listener address into something another process
// can dial: the unspecified host (listen ":0" / "0.0.0.0") becomes loopback.
func advertisable(a nnet.Addr) string {
	host, port, err := nnet.SplitHostPort(a.String())
	if err != nil {
		return a.String()
	}
	if ip := nnet.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return nnet.JoinHostPort(host, port)
}

// Endpoint returns this process's advertised endpoint.
func (r *Runtime) Endpoint() string { return r.self }

// IsBootstrap reports whether this process hosts address 0, the allocator
// and the authoritative directory.
func (r *Runtime) IsBootstrap() bool { return r.isBoot }

// --- Transport -------------------------------------------------------------

// Attach registers a handler, records the address in this process's
// directory and tells the cluster without waiting (see change).
func (r *Runtime) Attach(a runtime.Addr, ep runtime.Endpoint, h runtime.Handler) {
	if r.Closed() {
		return
	}
	r.Runtime.Attach(a, ep, h)
	r.change(int64(a), true)
}

// Detach removes an address and tells the cluster it is dead. Frames already
// in flight to it are dropped on arrival, like packets to a crashed host.
func (r *Runtime) Detach(a runtime.Addr) {
	r.Runtime.Detach(a)
	r.change(int64(a), false)
}

// change applies a local Attach or Detach: the bootstrap publishes it to
// every worker; a worker records it and posts it to the bootstrap.
func (r *Runtime) change(a int64, alive bool) {
	if r.isBoot {
		r.publish(a, r.self, alive, "")
		return
	}
	r.dir.apply(a, r.self, alive, "")
	r.post(r.boot, dirFrame(a, r.self, alive))
}

// Attached reports whether the address has a live handler here or is alive
// in this process's copy of the directory. It never leaves the process.
func (r *Runtime) Attached(a runtime.Addr) bool {
	return r.Runtime.Attached(a) || r.dir.alive(int64(a))
}

// Send posts the message to the outbox of the destination's process, as
// this process's directory names it; the outbox's writer encodes it, so a
// send costs the executor the same for any message size. A message must not
// be changed once sent, which the protocol already relies on where a
// runtime delivers the value itself. A worker posts an address
// its copy lacks to the bootstrap, which relays it; the bootstrap drops it
// silently — the transport contract is unreliable delivery — and so does
// anything the outbox drops; an endpoint that is down for a moment (a
// listener coming up late) gets the frame once its writer's redial lands.
// size only models serialization cost on the simulated transports; here the
// real bytes are the cost.
func (r *Runtime) Send(from, to runtime.Addr, size int, msg any) {
	if r.Closed() {
		return
	}
	ep, ok := r.dir.endpoint(int64(to))
	if !ok {
		if r.isBoot {
			return
		}
		ep = r.boot // the bootstrap relays it
	}
	code, err := r.codec.code(msg)
	if err != nil {
		r.cfg.Logf("send %d->%d: %v", from, to, err)
		return
	}
	r.post(ep, envelope{Type: code, From: int64(from), To: int64(to), msg: msg})
}

// NewAddr allocates the next cluster-wide peer address: locally on the
// bootstrap, via a JOIN-ALLOC request elsewhere — the one request a process
// waits on. The request carries the codec's fingerprint, and a bootstrap
// built from a different message list refuses it, which panics here naming
// both. Allocation is the one runtime operation that cannot degrade
// gracefully — a node that cannot reach its bootstrap while joining has no
// place in the cluster — so an unreachable bootstrap panics after
// allocAttempts requests, each given rpcTimeout, instead of corrupting the
// dense address space. A bootstrap that comes up while the requests wait is
// reached by the outbox's redial.
func (r *Runtime) NewAddr() runtime.Addr {
	if r.isBoot {
		return r.Runtime.NewAddr()
	}
	var lastErr error
	for attempt := 0; attempt < allocAttempts; attempt++ {
		id := r.msgID.Add(1)
		r.post(r.boot, envelope{Type: ctrlAllocReq, From: -1, To: -1, MsgID: id, Payload: allocPayload(r.codec.fp, -1, r.self)})
		timeout := time.After(rpcTimeout)
		var resp envelope
		for lastErr = nil; lastErr == nil && resp.MsgID != id; {
			select {
			case resp = <-r.allocs:
			case <-timeout:
				lastErr = fmt.Errorf("alloc request timed out after %v", rpcTimeout)
			case <-r.closedCh:
				lastErr = errors.New("runtime closed")
			}
		}
		if lastErr != nil {
			continue
		}
		fp, a, _, err := readAllocPayload(resp.Payload)
		if err == nil && fp != r.codec.fp {
			panic(fmt.Sprintf("net: wire schema %016x here, %016x at the bootstrap %s: every process must be built from the same message list", r.codec.fp, fp, r.boot))
		}
		if err == nil && a >= 0 {
			return runtime.Addr(a)
		}
		lastErr = fmt.Errorf("bad alloc response (addr %d, %v)", a, err)
	}
	panic(fmt.Sprintf("net: address allocation via %s failed: %v", r.boot, lastErr))
}

// Close shuts the runtime down: protocol execution stops and pending timers
// are dropped (live's Stop), the listener and every connection close (so all
// readers exit, blocked writes return, outbox writers stop and a waiting
// NewAddr fails), and only then does it wait — sockets go before the wait so
// that nothing a goroutine could be blocked on outlives it. Close blocks
// until every goroutine is gone.
func (r *Runtime) Close() {
	if !r.Stop() {
		return
	}
	close(r.closedCh)
	r.ln.Close()

	r.cmu.Lock()
	r.connsDown = true
	for c := range r.open {
		c.c.Close()
	}
	r.cmu.Unlock()

	r.Runtime.Close()
	r.wg.Wait()
}

// --- The directory on the bootstrap and the readers ----------------------

// publish applies a change to the bootstrap's directory and posts the same
// frame, in the order applied, to every named worker but origin. Posting
// under the directory lock is what orders a change against a worker's
// starting copy (name).
func (r *Runtime) publish(a int64, endpoint string, alive bool, origin string) {
	r.dir.mu.Lock()
	defer r.dir.mu.Unlock()
	r.dir.applyLocked(a, endpoint, alive, "")
	r.pushLocked(dirFrame(a, endpoint, alive), origin)
}

func (r *Runtime) pushLocked(env envelope, origin string) {
	for w := range r.dir.workers {
		if w != origin {
			r.post(w, env)
		}
	}
}

// name subscribes the endpoint a worker's connection names in its first
// alloc or register frame: the whole live directory is posted to it, then
// every change after it.
func (r *Runtime) name(c *wconn, ep string) {
	if c.ep != "" {
		return
	}
	c.ep = ep
	r.dir.mu.Lock()
	defer r.dir.mu.Unlock()
	r.dir.workers[ep]++
	for a, e := range r.dir.entries {
		if e.alive {
			r.post(ep, dirFrame(a, e.endpoint, true))
		}
	}
}

// unname ends a named connection. When it was the last one naming its
// endpoint the process is gone, and so is every address it hosted: each is
// marked detached and the detach published.
func (r *Runtime) unname(ep string) {
	r.dir.mu.Lock()
	defer r.dir.mu.Unlock()
	if r.dir.workers[ep]--; r.dir.workers[ep] > 0 {
		return
	}
	delete(r.dir.workers, ep)
	for a, e := range r.dir.entries {
		if e.alive && e.endpoint == ep {
			e.alive = false
			r.pushLocked(dirFrame(a, ep, false), ep)
		}
	}
}

// acceptLoop owns the listener.
func (r *Runtime) acceptLoop() {
	defer r.wg.Done()
	for {
		nc, err := r.ln.Accept()
		if err != nil || r.serve(nc) == nil {
			return // listener closed
		}
	}
}

// readLoop is a connection's single reader. It never takes the executor
// lock: every frame either lands in the run queue or an outbox, goes to a
// waiting NewAddr, or touches the directory/allocator. When the connection
// ends it marks it down, so the outbox writer that dialed it redials instead
// of writing into it.
func (r *Runtime) readLoop(c *wconn) {
	defer r.wg.Done()
	for {
		env, err := readEnvelope(c.br)
		if err != nil {
			break
		}
		r.handleFrame(c, env)
	}
	c.down.Store(true)
	c.c.Close()
	r.cmu.Lock()
	delete(r.open, c)
	r.cmu.Unlock()
	if c.ep != "" {
		r.unname(c.ep)
	}
}

// handleFrame dispatches one decoded envelope on a reader goroutine. On the
// bootstrap, register and detach frames are a worker's changes to publish;
// on a worker, they are the bootstrap's pushes to apply.
func (r *Runtime) handleFrame(c *wconn, env envelope) {
	switch {
	case env.Type < ctrlBase:
		if r.isBoot {
			if ep, ok := r.dir.endpoint(env.To); ok && ep != r.self {
				r.post(ep, env) // a worker's directory miss: relay it unchanged
				return
			}
		}
		msg, err := r.codec.Decode(env.Type, env.Payload)
		if err != nil {
			r.cfg.Logf("frame %d->%d: %v", env.From, env.To, err)
			return
		}
		r.Deliver(runtime.Addr(env.From), runtime.Addr(env.To), msg)

	case env.Type == ctrlAllocReq && r.isBoot:
		fp, _, ep, err := readAllocPayload(env.Payload)
		if err != nil || ep == "" {
			r.cfg.Logf("bad alloc frame: %v", err)
			return
		}
		a := int64(-1)
		if fp == r.codec.fp {
			r.name(c, ep)
			a = int64(r.Runtime.NewAddr())
			r.dir.set(a, ep, false) // routable at once, alive once registered
		}
		r.post(ep, envelope{Type: ctrlAllocResp, From: -1, To: -1, MsgID: env.MsgID, Payload: allocPayload(r.codec.fp, a, "")})

	case env.Type == ctrlAllocResp:
		select {
		case r.allocs <- env:
		default:
		}

	case env.Type == ctrlRegister:
		a, ep, err := readRegisterPayload(env.Payload)
		switch {
		case err != nil || ep == "":
			r.cfg.Logf("bad register frame: %v", err)
		case r.isBoot:
			r.name(c, ep)
			r.publish(a, ep, true, ep)
		default:
			r.dir.apply(a, ep, true, r.self)
		}

	case env.Type == ctrlDetach:
		if a, err := readAddrPayload(env.Payload); err != nil {
			r.cfg.Logf("bad detach frame: %v", err)
		} else if r.isBoot {
			r.publish(a, "", false, c.ep)
		} else {
			r.dir.apply(a, "", false, r.self)
		}

	default:
		r.cfg.Logf("unexpected frame type %#x", env.Type)
	}
}

var _ runtime.Runtime = (*Runtime)(nil)
