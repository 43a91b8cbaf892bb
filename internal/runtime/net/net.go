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
// protocol's well-known server) and brokers the two pieces of cluster-global
// state the runtime contract requires:
//
//   - address allocation: NewAddr on a non-bootstrap process is a JOIN-ALLOC
//     request to the bootstrap, which hands out dense addresses 1, 2, 3, …
//     from a single counter. This preserves the Addr.Index density contract
//     (flat array-backed routing tables) across process boundaries.
//   - the directory: Attach registers "address A lives at endpoint E";
//     senders resolve unknown addresses through the bootstrap and cache the
//     result forever (addresses are never re-homed, so entries cannot go
//     stale). Liveness is tracked only at the bootstrap: explicit detaches
//     mark entries dead, and a process's connection dropping marks every
//     address it registered dead — TCP is the failure detector of last
//     resort for whole-process crashes.
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
// dials its endpoint or writes to that connection. Send, Detach and the
// broker requests only post to it, so the executor never waits on a
// socket, and one peer that stops reading stalls its own writer, not the
// peers of the process.
//
// Each connection has exactly one reader goroutine, and it never blocks on
// protocol execution: data frames are decoded and handed to live's Deliver,
// which takes only the run queue's lock (dropped if the address is not
// attached here — a packet to a dead host), control responses are handed to
// the waiter parked in the inflight[msgID] map, and control requests touch
// only the directory and the atomic address counter, never the executor.
//
// Message-level guarantees match the live runtime: sends are asynchronous
// and unreliable (an unresolvable address, a full outbox, an endpoint that
// stays unreachable through the redial schedule, or a failed write drops
// messages silently), and the frames to one endpoint leave in the order
// they were posted, across reconnects too, because one writer sends them.
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

// The transport's I/O bounds: one connection attempt, one broker request,
// one frame write.
const (
	dialTimeout  = 5 * time.Second
	rpcTimeout   = 5 * time.Second
	writeTimeout = 10 * time.Second
)

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
	// this process IS the bootstrap: it hosts address 0 and serves
	// allocation and directory requests.
	Bootstrap string
	// Messages are the codec prototypes, in the cluster-wide shared order
	// (core.WireMessages). Required.
	Messages []any
	// Seed seeds the runtime's RNG (execution stays nondeterministic).
	Seed int64
	// AwaitTimeout bounds a single Await call. Default 30s.
	AwaitTimeout time.Duration
	// Logf receives transport diagnostics (encode failures, broker errors).
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

	// inflight parks one waiter channel per outstanding broker request,
	// keyed by MsgID; the bootstrap connection's reader completes them.
	imu      sync.Mutex
	inflight map[uint64]chan envelope
	msgID    atomic.Uint64

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
		inflight: make(map[uint64]chan envelope),
		closedCh: make(chan struct{}),
	}
	r.self = cfg.Advertise
	if r.self == "" {
		r.self = advertisable(ln.Addr())
	}
	if r.isBoot {
		r.boot = r.self
	} else {
		r.boot = cfg.Bootstrap
		// The server's address is bootstrap information, not something to
		// discover: seed the resolution cache so the very first join can
		// reach address 0.
		r.dir.set(int64(r.ServerAddr()), r.boot, true)
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

// IsBootstrap reports whether this process hosts address 0 and the broker.
func (r *Runtime) IsBootstrap() bool { return r.isBoot }

// --- Transport -------------------------------------------------------------

// Attach registers a handler and announces the address to the bootstrap's
// directory so other processes can route to it. The announcement is
// synchronous: when Attach returns, a response sent to this address by any
// process resolves.
func (r *Runtime) Attach(a runtime.Addr, ep runtime.Endpoint, h runtime.Handler) {
	if r.Closed() {
		return
	}
	r.Runtime.Attach(a, ep, h)
	r.dir.set(int64(a), r.self, true)
	if !r.isBoot {
		if _, err := r.rpc(ctrlRegisterReq, registerPayload(int64(a), r.self)); err != nil {
			r.cfg.Logf("register addr %d: %v", a, err)
		}
	}
}

// Detach removes an address and reports it dead to the bootstrap. Frames
// already in flight to it are dropped on arrival, like packets to a crashed
// host.
func (r *Runtime) Detach(a runtime.Addr) {
	r.Runtime.Detach(a)
	r.dir.markDead(int64(a))
	if !r.isBoot {
		r.post(r.boot, envelope{Type: ctrlDetach, From: -1, To: -1, Payload: addrPayload(int64(a))})
	}
}

// Attached reports whether the address currently has a live handler
// anywhere in the cluster: locally via the address table, elsewhere via the
// bootstrap's directory (a broker round trip on non-bootstrap processes).
func (r *Runtime) Attached(a runtime.Addr) bool {
	if r.Runtime.Attached(a) {
		return true
	}
	if r.isBoot {
		return r.dir.alive(int64(a))
	}
	resp, err := r.rpc(ctrlAttachedReq, addrPayload(int64(a)))
	if err != nil || len(resp.Payload) < 1 {
		return false
	}
	return resp.Payload[0] != 0
}

// Send encodes the message and posts it to the outbox of the destination's
// process. An unknown address drops the message silently — the transport
// contract is unreliable delivery — and so does anything the outbox drops;
// an endpoint that is down for a moment (a listener coming up late) gets
// the frame once its writer's redial lands. size only models serialization
// cost on the simulated transports; here the real bytes are the cost.
func (r *Runtime) Send(from, to runtime.Addr, size int, msg any) {
	if r.Closed() {
		return
	}
	ep, ok := r.endpointOf(to)
	if !ok {
		return
	}
	code, payload, err := r.codec.Encode(msg)
	if err != nil {
		r.cfg.Logf("send %d->%d: %v", from, to, err)
		return
	}
	r.post(ep, envelope{Type: code, From: int64(from), To: int64(to), Payload: payload})
}

// endpointOf resolves an address to its hosting process's endpoint: local
// cache first, then a broker round trip. Endpoints are immutable once
// registered, so positive results are cached forever; negative results are
// not cached (the address may be registered a moment later).
func (r *Runtime) endpointOf(a runtime.Addr) (string, bool) {
	if ep, ok := r.dir.endpoint(int64(a)); ok {
		return ep, true
	}
	if r.isBoot {
		return "", false
	}
	resp, err := r.rpc(ctrlResolveReq, addrPayload(int64(a)))
	if err != nil {
		return "", false
	}
	found, ep, err := readResolvePayload(resp.Payload)
	if err != nil || !found {
		return "", false
	}
	r.dir.set(int64(a), ep, true)
	return ep, true
}

// NewAddr allocates the next cluster-wide peer address: locally on the
// bootstrap, via a JOIN-ALLOC broker request elsewhere. Allocation is the
// one runtime operation that cannot degrade gracefully — a node that cannot
// reach its bootstrap while joining has no place in the cluster — so an
// unreachable broker panics after three requests, each given rpcTimeout,
// instead of corrupting the dense address space. A bootstrap that comes up
// while the requests wait is reached by the outbox's redial.
func (r *Runtime) NewAddr() runtime.Addr {
	if r.isBoot {
		return r.Runtime.NewAddr()
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		resp, err := r.rpc(ctrlAllocReq, nil)
		if err != nil {
			lastErr = err
			continue
		}
		a, err := readAddrPayload(resp.Payload)
		if err != nil || a < 0 {
			lastErr = fmt.Errorf("bad alloc response (addr %d, %v)", a, err)
			continue
		}
		return runtime.Addr(a)
	}
	panic(fmt.Sprintf("net: address allocation via %s failed: %v", r.boot, lastErr))
}

// Close shuts the runtime down: protocol execution stops and pending timers
// are dropped (live's Stop), the listener and every connection close (so all
// readers exit, blocked writes return, outbox writers stop and outstanding
// broker requests fail), and only then does it wait — sockets go before the
// wait so that nothing a goroutine could be blocked on outlives it. Close
// blocks until every goroutine is gone.
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

// --- The broker dialogue and the readers ---------------------------------

// rpc is one broker round trip: stamp a MsgID, park a waiter, post the
// request to the bootstrap's outbox, wait for the reader to complete it.
func (r *Runtime) rpc(typ uint16, payload []byte) (envelope, error) {
	if r.isBoot {
		return envelope{}, errors.New("net: the bootstrap answers locally")
	}
	id := r.msgID.Add(1)
	ch := make(chan envelope, 1)
	r.imu.Lock()
	r.inflight[id] = ch
	r.imu.Unlock()
	defer func() {
		r.imu.Lock()
		delete(r.inflight, id)
		r.imu.Unlock()
	}()

	r.post(r.boot, envelope{Type: typ, From: -1, To: -1, MsgID: id, Payload: payload})
	select {
	case resp := <-ch:
		return resp, nil
	case <-time.After(rpcTimeout):
		return envelope{}, fmt.Errorf("broker request %#x timed out", typ)
	case <-r.closedCh:
		return envelope{}, errors.New("net: runtime closed")
	}
}

// acceptLoop owns the listener.
func (r *Runtime) acceptLoop() {
	defer r.wg.Done()
	for {
		nc, err := r.ln.Accept()
		if err != nil || r.serve(nc, true) == nil {
			return // listener closed
		}
	}
}

// readLoop is a connection's single reader. It never takes the executor
// lock: every frame either lands in the run queue, completes an inflight
// waiter, or touches the directory/allocator. When the connection ends it
// marks it down, so the outbox writer that dialed it redials instead of
// writing into it.
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
	// The connection is gone: every address the remote process registered
	// through it went with the process.
	if r.isBoot {
		r.dir.markDeadAll(c.takeReg())
	}
}

// handleFrame dispatches one decoded envelope on a reader goroutine.
func (r *Runtime) handleFrame(c *wconn, env envelope) {
	switch {
	case env.Type < ctrlBase:
		msg, err := r.codec.Decode(env.Type, env.Payload)
		if err != nil {
			r.cfg.Logf("frame %d->%d: %v", env.From, env.To, err)
			return
		}
		r.Deliver(runtime.Addr(env.From), runtime.Addr(env.To), msg)

	case env.Type == ctrlAllocReq:
		a := int64(-1)
		if r.isBoot {
			a = int64(r.Runtime.NewAddr())
		}
		r.reply(c, ctrlAllocResp, env.MsgID, addrPayload(a))

	case env.Type == ctrlRegisterReq:
		a, endpoint, err := readRegisterPayload(env.Payload)
		if err != nil {
			r.cfg.Logf("bad register frame: %v", err)
			return
		}
		r.dir.set(a, endpoint, true)
		c.addReg(a)
		if env.MsgID != 0 {
			r.reply(c, ctrlRegisterResp, env.MsgID, nil)
		}

	case env.Type == ctrlResolveReq:
		a, err := readAddrPayload(env.Payload)
		if err != nil {
			return
		}
		endpoint, found := r.dir.endpoint(a)
		r.reply(c, ctrlResolveResp, env.MsgID, resolvePayload(found, endpoint))

	case env.Type == ctrlAttachedReq:
		a, err := readAddrPayload(env.Payload)
		if err != nil {
			return
		}
		r.reply(c, ctrlAttachedResp, env.MsgID, boolPayload(r.dir.alive(a)))

	case env.Type == ctrlDetach:
		if a, err := readAddrPayload(env.Payload); err == nil {
			r.dir.markDead(a)
		}

	case env.Type == ctrlAllocResp || env.Type == ctrlRegisterResp ||
		env.Type == ctrlResolveResp || env.Type == ctrlAttachedResp:
		r.imu.Lock()
		ch := r.inflight[env.MsgID]
		r.imu.Unlock()
		if ch != nil {
			select {
			case ch <- env:
			default:
			}
		}

	default:
		r.cfg.Logf("unknown frame type %#x", env.Type)
	}
}

// reply writes a control response on the connection the request arrived on,
// from its reader. Only an accepted connection is answered: no legitimate
// peer sends requests down a connection this process dialed, and there the
// outbox writer must stay the one writer.
func (r *Runtime) reply(c *wconn, typ uint16, msgID uint64, payload []byte) {
	if !c.accepted {
		return
	}
	env := envelope{Type: typ, From: -1, To: -1, MsgID: msgID, Payload: payload}
	if err := c.write(env); err != nil {
		c.c.Close() // the reader will notice and clean up
	}
}

var _ runtime.Runtime = (*Runtime)(nil)
