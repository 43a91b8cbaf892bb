package net

import (
	"bufio"
	nnet "net"
	"sync"
	"time"
)

// wconn is one cluster connection: a TCP conn plus a write lock (frames from
// concurrent writers must not interleave) and, on the bootstrap side, the
// list of addresses registered through it. That list is the cluster's
// failure detector of last resort: when the connection dies, every address
// the remote process registered over it is marked detached in the directory,
// exactly as the remote's peers stopped existing when the process did.
type wconn struct {
	c  nnet.Conn
	br *bufio.Reader

	wmu sync.Mutex

	regMu sync.Mutex
	reg   []int64
}

func newWconn(c nnet.Conn) *wconn {
	return &wconn{c: c, br: bufio.NewReaderSize(c, 32<<10)}
}

// write frames and sends one envelope. A single deadline-bounded write per
// frame: the receiver's reader never blocks (it only decodes and enqueues),
// so a stalled write means a dead or wedged peer, and failing the send is
// the correct unreliable-transport outcome.
func (c *wconn) write(env envelope) error {
	buf := appendEnvelope(nil, env)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.c.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := c.c.Write(buf)
	return err
}

// addReg records an address registered via this connection.
func (c *wconn) addReg(a int64) {
	c.regMu.Lock()
	c.reg = append(c.reg, a)
	c.regMu.Unlock()
}

// takeReg returns the addresses registered via this connection.
func (c *wconn) takeReg() []int64 {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	out := c.reg
	c.reg = nil
	return out
}

// directory is the bootstrap's authoritative addr → endpoint map (and every
// other process's resolution cache). Endpoints are immutable once
// registered — addresses are never reused across processes — so cached
// entries cannot go stale; only liveness changes, and only the bootstrap's
// copy tracks it.
type directory struct {
	mu      sync.Mutex
	entries map[int64]*dirEntry
}

type dirEntry struct {
	endpoint string
	alive    bool
}

func newDirectory() *directory {
	return &directory{entries: make(map[int64]*dirEntry)}
}

func (d *directory) set(a int64, endpoint string, alive bool) {
	d.mu.Lock()
	d.entries[a] = &dirEntry{endpoint: endpoint, alive: alive}
	d.mu.Unlock()
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

func (d *directory) markDead(a int64) {
	d.mu.Lock()
	if e, ok := d.entries[a]; ok {
		e.alive = false
	}
	d.mu.Unlock()
}

func (d *directory) markDeadAll(addrs []int64) {
	d.mu.Lock()
	for _, a := range addrs {
		if e, ok := d.entries[a]; ok {
			e.alive = false
		}
	}
	d.mu.Unlock()
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
