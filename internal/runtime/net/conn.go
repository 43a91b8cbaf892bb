package net

import (
	"bufio"
	"math/rand"
	nnet "net"
	"sync"
	"sync/atomic"
	"time"
)

// wconn is one cluster connection: a TCP conn, whether its reader has seen
// it end, and, on the bootstrap side of a worker's connection, the endpoint
// the worker named on it. That name is the cluster's failure detector of
// last resort: when the last connection naming an endpoint dies, every
// address at that endpoint is marked detached in the directory, exactly as
// the remote's peers stopped existing when the process did.
type wconn struct {
	c    nnet.Conn
	br   *bufio.Reader
	down atomic.Bool
	ep   string // touched only by the connection's reader
}

// write frames and sends a batch of envelopes in one Write under one
// deadline. Only the outbox writer that dialed a connection writes to it —
// a connection this process accepted is read-only — so frames never
// interleave. The receiver's reader never blocks (it only decodes and
// enqueues), so a stalled write means a dead or wedged peer, and failing the
// batch is the correct unreliable-transport outcome; only the goroutine
// writing to that peer waited for it.
func (c *wconn) write(frames ...envelope) error {
	n := 0
	for i := range frames {
		if env := &frames[i]; env.msg != nil {
			env.Payload, env.msg = encodePayload(env.msg), nil
		}
		n += headerLen + len(frames[i].Payload)
	}
	// Allocated per batch, not kept for reuse: one full replica push is
	// megabytes, and a buffer held per endpoint would keep that much live.
	buf := make([]byte, 0, n)
	for _, env := range frames {
		buf = appendEnvelope(buf, env)
	}
	c.c.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := c.c.Write(buf)
	return err
}

// outboxMax bounds each outbox. A frame posted to a full outbox is dropped
// and counted — the newest frame loses, and what is queued keeps its order.
// A writer with a live connection empties its outbox on every wake, so the
// queue grows only while the endpoint is being dialed or stops reading; the
// bound leaves room for what busy senders post during one dial (eight
// goroutines sending in a loop post over a thousand frames while a loopback
// dial completes under the race detector).
const outboxMax = 1 << 14

// The redial schedule: a writer with frames queued and no connection dials
// up to dialAttempts times, waiting a jittered, doubling backoff from
// dialRetryBase up to dialRetryCap between attempts (3 to 5 s in all). If
// every attempt fails the queued frames are dropped — unreliable delivery —
// and the next post starts the schedule again.
const (
	dialAttempts  = 8
	dialRetryBase = 50 * time.Millisecond
	dialRetryCap  = 2 * time.Second
)

// outbox is the one way out of this process to one remote endpoint: a
// bounded FIFO of frames and the one writer goroutine that dials the
// endpoint and writes them. Send, Attach, Detach, NewAddr and the directory
// pushes only post here, so the executor never touches a socket, and a
// refusing or wedged endpoint holds up its own writer and nothing else.
// queue, dropped and the wake token are guarded by Runtime.cmu.
type outbox struct {
	queue   []envelope
	dropped int           // frames refused at outboxMax
	wake    chan struct{} // capacity 1: holds a token while queue is non-empty
}

// post appends a frame to the endpoint's outbox, creating the outbox and
// starting its writer on first use. It never waits on the network.
func (r *Runtime) post(ep string, env envelope) {
	r.cmu.Lock()
	defer r.cmu.Unlock()
	if r.connsDown {
		return
	}
	ob := r.outboxes[ep]
	if ob == nil {
		ob = &outbox{wake: make(chan struct{}, 1)}
		r.outboxes[ep] = ob
		r.wg.Add(1)
		go r.writeLoop(ep, ob)
	}
	if len(ob.queue) >= outboxMax {
		ob.dropped++
		return
	}
	ob.queue = append(ob.queue, env)
	select {
	case ob.wake <- struct{}{}:
	default:
	}
}

// take empties the outbox and its wake token together, so a token always
// means frames are waiting.
func (r *Runtime) take(ob *outbox) []envelope {
	r.cmu.Lock()
	defer r.cmu.Unlock()
	select {
	case <-ob.wake:
	default:
	}
	q := ob.queue
	ob.queue = nil
	return q
}

// writeLoop is an outbox's writer, the only goroutine that dials its
// endpoint or writes to the connection it dialed; frames therefore leave in
// the order they were posted, across reconnects too. On each wake it makes
// sure a connection is up — dialing on the redial schedule, and on a fresh
// connection to the bootstrap re-announcing every live local address first
// (if the previous connection dropped, the bootstrap marked them dead) — and
// then writes everything queued in one syscall. A failed write loses that
// batch; the next one redials.
func (r *Runtime) writeLoop(ep string, ob *outbox) {
	defer r.wg.Done()
	var c *wconn
	for {
		select {
		case <-ob.wake:
		case <-r.closedCh:
			return
		}
		var announce []envelope
		if c == nil || c.down.Load() {
			if c = r.dial(ep); c == nil {
				r.take(ob) // the endpoint stayed unreachable: drop the backlog
				continue
			}
			if !r.isBoot && ep == r.boot {
				for _, a := range r.dir.liveAt(r.self) {
					announce = append(announce, dirFrame(a, r.self, true))
				}
			}
		}
		batch := r.take(ob)
		if announce != nil {
			batch = append(announce, batch...)
		}
		if err := c.write(batch...); err != nil {
			c.c.Close() // the reader will notice and clean up
			c = nil
		}
	}
}

// dial connects to ep on the redial schedule and starts the connection's
// reader. It returns nil when every attempt failed or the runtime closed.
func (r *Runtime) dial(ep string) *wconn {
	backoff := dialRetryBase
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			// Jitter half the backoff window. The executor-locked r.rng must
			// not be touched from here; the global source is thread-safe.
			select {
			case <-time.After(backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))):
			case <-r.closedCh:
				return nil
			}
			backoff = min(2*backoff, dialRetryCap)
		}
		if nc, err := nnet.DialTimeout("tcp", ep, dialTimeout); err == nil {
			return r.serve(nc)
		}
	}
	return nil
}

// serve adds a connection to the open set and starts its reader; once Close
// has begun it closes the connection instead and returns nil.
func (r *Runtime) serve(nc nnet.Conn) *wconn {
	r.cmu.Lock()
	defer r.cmu.Unlock()
	if r.connsDown {
		nc.Close()
		return nil
	}
	c := &wconn{c: nc, br: bufio.NewReaderSize(nc, 32<<10)}
	r.open[c] = struct{}{}
	r.wg.Add(1)
	go r.readLoop(c)
	return c
}

// directory is every process's copy of addr → endpoint and liveness. The
// bootstrap's is the authority; a worker's follows it through the register
// and detach frames the bootstrap pushes (see Runtime.publish). Endpoints
// are immutable once set — addresses are never re-homed — so only liveness
// changes.
type directory struct {
	mu      sync.Mutex
	entries map[int64]*dirEntry
	workers map[string]int // bootstrap only: worker endpoint → connections that named it
}

type dirEntry struct {
	endpoint string
	alive    bool
}

func newDirectory() *directory {
	return &directory{entries: make(map[int64]*dirEntry), workers: make(map[string]int)}
}

func (d *directory) set(a int64, endpoint string, alive bool) {
	d.mu.Lock()
	d.entries[a] = &dirEntry{endpoint: endpoint, alive: alive}
	d.mu.Unlock()
}

// apply records a register (alive, at endpoint) or a detach of a. It leaves
// an entry at keep alone: a worker passes its own endpoint for a frame from
// the bootstrap, because Attach and Detach here own those entries.
func (d *directory) apply(a int64, endpoint string, alive bool, keep string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.applyLocked(a, endpoint, alive, keep)
}

func (d *directory) applyLocked(a int64, endpoint string, alive bool, keep string) {
	switch e := d.entries[a]; {
	case e != nil && e.endpoint == keep, alive && endpoint == keep:
	case alive:
		d.entries[a] = &dirEntry{endpoint: endpoint, alive: true}
	case e != nil:
		e.alive = false
	}
}

func (d *directory) endpoint(a int64) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[a]; ok {
		return e.endpoint, true
	}
	return "", false
}

func (d *directory) alive(a int64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[a]
	return ok && e.alive
}

// liveAt returns the live addresses registered at the given endpoint, for
// re-announcing after a reconnect to the bootstrap.
func (d *directory) liveAt(endpoint string) []int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []int64
	for a, e := range d.entries {
		if e.alive && e.endpoint == endpoint {
			out = append(out, a)
		}
	}
	return out
}
