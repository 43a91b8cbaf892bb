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
// Runtime embeds *live.Runtime, so the executor lock, mailboxes, timers,
// Do/Await/Sleep and the address counter are that package's, not copies of
// them. This package adds only what sockets need: Attach, Detach, Attached,
// NewAddr and Close call the embedded method and then do their directory or
// connection work, and Send replaces the loopback hand-off: every message —
// including one whose destination is hosted by the sending process — is
// encoded by the codec (codec.go), framed in the wire envelope (wire.go),
// and written to the destination process's socket. The uniform path means
// the conformance suite exercises the codec and framing even in a single
// process.
//
// Each connection has exactly one reader goroutine, and it never blocks on
// protocol execution: data frames are decoded and handed to live's Deliver,
// which takes only mailbox locks (dropped if the address is not attached
// here — a packet to a dead host), control responses are handed to the
// waiter parked in the inflight[msgID] map, and control requests touch only
// the directory and the atomic address counter, never the executor. A slow
// or wedged peer therefore cannot stall delivery to anyone else.
//
// Message-level guarantees match the live runtime: sends are asynchronous
// and unreliable (an unresolvable address, unreachable endpoint, or dead
// connection drops the message silently), and delivery between a pair of
// processes is FIFO because it shares one connection.
package net

import (
	"errors"
	"fmt"
	"math/rand"
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

	// cmu guards the connection cache, the inbound set and the negative
	// dial cache.
	cmu        sync.Mutex
	conns      map[string]*wconn
	inbound    map[*wconn]struct{}
	dialFailAt map[string]time.Time
	// dials holds, per endpoint with no live connection, the messages queued
	// while a background reconnect loop (dialLoop) retries the dial with
	// exponential backoff. Guarded by cmu.
	dials     map[string]*dialState
	connsDown bool // set by Close before sweeping, so no conn leaks past it

	// inflight parks one waiter channel per outstanding broker request,
	// keyed by MsgID; the bootstrap connection's reader completes them.
	imu      sync.Mutex
	inflight map[uint64]chan envelope
	msgID    atomic.Uint64

	closedCh chan struct{}
	readers  sync.WaitGroup // accept loop + connection readers
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
		Runtime:    live.New(live.Config{Seed: cfg.Seed, AwaitTimeout: cfg.AwaitTimeout}),
		cfg:        cfg,
		codec:      codec,
		isBoot:     cfg.Bootstrap == "",
		ln:         ln,
		dir:        newDirectory(),
		conns:      make(map[string]*wconn),
		inbound:    make(map[*wconn]struct{}),
		dialFailAt: make(map[string]time.Time),
		dials:      make(map[string]*dialState),
		inflight:   make(map[uint64]chan envelope),
		closedCh:   make(chan struct{}),
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
	r.readers.Add(1)
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

// Attach registers a handler, starts its mailbox goroutine, and announces
// the address to the bootstrap's directory so other processes can route to
// it. The announcement is synchronous: when Attach returns, a response sent
// to this address by any process resolves.
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
		if c, err := r.connTo(r.boot); err == nil {
			if err := c.write(envelope{Type: ctrlDetach, From: -1, To: -1, Payload: addrPayload(int64(a))}); err != nil {
				r.dropConn(r.boot, c)
			}
		}
	}
}

// Attached reports whether the address currently has a live handler
// anywhere in the cluster: locally via the mailbox table, elsewhere via the
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

// Send encodes the message and writes it to the destination's process. An
// unknown address or dead connection drops the message silently — the
// transport contract is unreliable delivery. A transiently unreachable
// endpoint no longer drops on the spot: the message is queued (bounded) and
// a background reconnect loop retries the dial with exponential backoff,
// delivering the backlog once the endpoint comes up. size only models
// serialization cost on the simulated transports; here the real bytes are
// the cost.
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
	env := envelope{Type: code, From: int64(from), To: int64(to), Payload: payload}

	r.cmu.Lock()
	if r.connsDown {
		r.cmu.Unlock()
		return
	}
	if c, ok := r.conns[ep]; ok {
		r.cmu.Unlock()
		if err := c.write(env); err != nil {
			r.dropConn(ep, c)
		}
		return
	}
	// No live connection: queue the frame and make sure one reconnect loop
	// is working the endpoint. Overflow past the queue bound drops the
	// message — the contract is unreliable, the queue just covers transient
	// outages (a peer restarting, a listener coming up late).
	ds := r.dials[ep]
	if ds == nil {
		ds = &dialState{}
		r.dials[ep] = ds
	}
	if len(ds.pending) < dialQueueMax {
		ds.pending = append(ds.pending, env)
	}
	if !ds.active {
		ds.active = true
		r.readers.Add(1)
		go r.dialLoop(ep)
	}
	r.cmu.Unlock()
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
// unreachable broker panics after retries instead of corrupting the dense
// address space.
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
// readers exit, blocked writes return and outstanding broker requests fail),
// and only then does it wait — sockets go before the wait so that nothing a
// goroutine could be blocked on outlives it. Close blocks until every
// goroutine is gone.
func (r *Runtime) Close() {
	if !r.Stop() {
		return
	}
	close(r.closedCh)
	r.ln.Close()

	r.cmu.Lock()
	r.connsDown = true
	for ep, c := range r.conns {
		c.c.Close()
		delete(r.conns, ep)
	}
	for c := range r.inbound {
		c.c.Close()
		delete(r.inbound, c)
	}
	r.cmu.Unlock()

	r.Runtime.Close()
	r.readers.Wait()
}

// --- Connections and the broker dialogue -----------------------------------

// dialBackoff is how long a failed endpoint is considered unreachable
// before another synchronous dial (connTo: broker RPCs, Attach) is
// attempted; it keeps callers on the blocking path from paying a connect
// timeout per request.
const dialBackoff = 500 * time.Millisecond

// Reconnect-loop tuning: a queued endpoint is retried dialAttempts times
// with jittered exponential backoff from dialRetryBase up to dialRetryCap
// (~8 attempts spanning roughly six seconds), holding at most dialQueueMax
// frames. Past either bound the backlog is dropped — unreliable delivery.
const (
	dialQueueMax  = 1024
	dialAttempts  = 8
	dialRetryBase = 50 * time.Millisecond
	dialRetryCap  = 2 * time.Second
)

// dialState is the per-endpoint reconnect backlog (guarded by cmu).
type dialState struct {
	pending []envelope
	active  bool // a dialLoop goroutine is working this endpoint
}

// connTo returns the cached connection to an endpoint, dialing if needed.
// This is the synchronous path (broker RPCs, Attach): it respects the
// negative dial cache so blocking callers fail fast on a dead endpoint.
func (r *Runtime) connTo(ep string) (*wconn, error) {
	r.cmu.Lock()
	if r.connsDown {
		r.cmu.Unlock()
		return nil, errors.New("net: runtime closed")
	}
	if c, ok := r.conns[ep]; ok {
		r.cmu.Unlock()
		return c, nil
	}
	if t, ok := r.dialFailAt[ep]; ok && time.Since(t) < dialBackoff {
		r.cmu.Unlock()
		return nil, errors.New("net: endpoint recently unreachable")
	}
	r.cmu.Unlock()
	return r.dialAndInstall(ep)
}

// dialAndInstall dials an endpoint and installs the connection in the cache
// (or yields to a connection that won the install race). It bypasses the
// negative dial cache — the reconnect loop owns its own backoff schedule and
// must be able to retry faster than dialBackoff.
func (r *Runtime) dialAndInstall(ep string) (*wconn, error) {
	r.cmu.Lock()
	if r.connsDown {
		r.cmu.Unlock()
		return nil, errors.New("net: runtime closed")
	}
	if c, ok := r.conns[ep]; ok {
		r.cmu.Unlock()
		return c, nil
	}
	r.cmu.Unlock()

	nc, err := nnet.DialTimeout("tcp", ep, dialTimeout)
	if err != nil {
		r.cmu.Lock()
		r.dialFailAt[ep] = time.Now()
		r.cmu.Unlock()
		return nil, err
	}
	c := newWconn(nc)

	r.cmu.Lock()
	if r.connsDown {
		r.cmu.Unlock()
		nc.Close()
		return nil, errors.New("net: runtime closed")
	}
	if existing, ok := r.conns[ep]; ok {
		r.cmu.Unlock()
		nc.Close()
		return existing, nil
	}
	r.conns[ep] = c
	delete(r.dialFailAt, ep)
	r.cmu.Unlock()

	r.readers.Add(1)
	go r.readLoop(c, ep)

	// A fresh connection to the bootstrap re-announces every live local
	// address: if the previous connection dropped, the broker marked them
	// dead, and this revives them (one-way frames; nothing to await).
	if !r.isBoot && ep == r.boot {
		for _, a := range r.dir.liveAt(r.self) {
			if err := c.write(envelope{Type: ctrlRegisterReq, From: -1, To: -1, Payload: registerPayload(a, r.self)}); err != nil {
				break
			}
		}
	}
	return c, nil
}

// dialLoop is the per-endpoint reconnect worker: retry the dial with
// jittered exponential backoff until it lands, then flush the frames queued
// while the endpoint was down. Sends racing the flush write directly on the
// installed connection, so a brief reorder around the reconnect is possible
// — strictly milder than the old behavior, which dropped every one of these
// messages on the floor.
func (r *Runtime) dialLoop(ep string) {
	defer r.readers.Done()
	backoff := dialRetryBase
	for attempt := 0; attempt < dialAttempts; attempt++ {
		c, err := r.dialAndInstall(ep)
		if err == nil {
			r.cmu.Lock()
			var pending []envelope
			if ds := r.dials[ep]; ds != nil {
				pending = ds.pending
				ds.pending = nil
				ds.active = false
			}
			r.cmu.Unlock()
			for _, env := range pending {
				if err := c.write(env); err != nil {
					// The fresh connection died mid-flush: the rest of the
					// backlog is lost (unreliable contract).
					r.dropConn(ep, c)
					break
				}
			}
			return
		}
		// Jitter half the backoff window. The executor-locked r.rng must not
		// be touched from here; the global source is thread-safe.
		d := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		select {
		case <-time.After(d):
		case <-r.closedCh:
			r.abandonDial(ep)
			return
		}
		backoff *= 2
		if backoff > dialRetryCap {
			backoff = dialRetryCap
		}
	}
	r.abandonDial(ep)
}

// abandonDial drops an endpoint's backlog after the reconnect loop gives up
// (or the runtime closes), so a later Send can start a fresh loop.
func (r *Runtime) abandonDial(ep string) {
	r.cmu.Lock()
	if ds := r.dials[ep]; ds != nil {
		ds.pending = nil
		ds.active = false
	}
	r.cmu.Unlock()
}

// dropConn forgets a connection after a write error so the next send
// redials.
func (r *Runtime) dropConn(ep string, c *wconn) {
	c.c.Close()
	r.cmu.Lock()
	if cur, ok := r.conns[ep]; ok && cur == c {
		delete(r.conns, ep)
	}
	r.cmu.Unlock()
}

// rpc is one broker round trip: stamp a MsgID, park a waiter, write the
// request on the bootstrap connection, wait for the reader to complete it.
func (r *Runtime) rpc(typ uint16, payload []byte) (envelope, error) {
	if r.isBoot {
		return envelope{}, errors.New("net: the bootstrap answers locally")
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		c, err := r.connTo(r.boot)
		if err != nil {
			lastErr = err
			continue
		}
		id := r.msgID.Add(1)
		ch := make(chan envelope, 1)
		r.imu.Lock()
		r.inflight[id] = ch
		r.imu.Unlock()

		env := envelope{Type: typ, From: -1, To: -1, MsgID: id, Payload: payload}
		if err := c.write(env); err != nil {
			r.unpark(id)
			r.dropConn(r.boot, c)
			lastErr = err
			continue
		}
		select {
		case resp := <-ch:
			r.unpark(id)
			return resp, nil
		case <-time.After(rpcTimeout):
			r.unpark(id)
			lastErr = fmt.Errorf("broker request %#x timed out", typ)
		case <-r.closedCh:
			r.unpark(id)
			return envelope{}, errors.New("net: runtime closed")
		}
	}
	return envelope{}, lastErr
}

func (r *Runtime) unpark(id uint64) {
	r.imu.Lock()
	delete(r.inflight, id)
	r.imu.Unlock()
}

// acceptLoop owns the listener.
func (r *Runtime) acceptLoop() {
	defer r.readers.Done()
	for {
		nc, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := newWconn(nc)
		r.cmu.Lock()
		if r.connsDown {
			r.cmu.Unlock()
			nc.Close()
			return
		}
		r.inbound[c] = struct{}{}
		r.cmu.Unlock()
		r.readers.Add(1)
		go r.readLoop(c, "")
	}
}

// readLoop is a connection's single reader. It never takes the executor
// lock: every frame either lands in a mailbox, completes an inflight
// waiter, or touches the directory/allocator. ep is the dialed endpoint
// ("" for inbound connections).
func (r *Runtime) readLoop(c *wconn, ep string) {
	defer r.readers.Done()
	for {
		env, err := readEnvelope(c.br)
		if err != nil {
			break
		}
		r.handleFrame(c, env)
	}
	c.c.Close()
	r.cmu.Lock()
	if ep != "" {
		if cur, ok := r.conns[ep]; ok && cur == c {
			delete(r.conns, ep)
		}
	} else {
		delete(r.inbound, c)
	}
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

// reply writes a control response on the connection the request arrived on.
func (r *Runtime) reply(c *wconn, typ uint16, msgID uint64, payload []byte) {
	env := envelope{Type: typ, From: -1, To: -1, MsgID: msgID, Payload: payload}
	if err := c.write(env); err != nil {
		c.c.Close() // the reader will notice and clean up
	}
}

var _ runtime.Runtime = (*Runtime)(nil)
