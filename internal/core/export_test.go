package core

import (
	"slices"

	"repro/internal/idspace"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// Test-only accessors into the discrete-event runtime underneath a System.
// The shipped package is engine-agnostic (it imports only internal/runtime);
// the tests, which all run on the DES runtime, still need to single-step the
// engine, inject faults and inspect the topology. Living in a _test.go file,
// these helpers keep sim/simnet out of the package's import graph.

func (s *System) desRuntime() *simnet.Runtime {
	switch rt := s.rt.(type) {
	case *tapRuntime:
		return rt.Runtime
	case *countingRuntime:
		return rt.Runtime
	}
	return s.rt.(*simnet.Runtime)
}

// countingRuntime is the DES runtime counting the protocol's Schedule and
// Unschedule calls. A ticker keeps the clock it was started on, so its
// re-arms are not counted.
type countingRuntime struct {
	*simnet.Runtime
	schedules, unschedules int
}

func (r *countingRuntime) Schedule(d runtime.Time, fn func()) runtime.Handle {
	r.schedules++
	return r.Runtime.Schedule(d, fn)
}

func (r *countingRuntime) Unschedule(h runtime.Handle) bool {
	r.unschedules++
	return r.Runtime.Unschedule(h)
}

// CountClock routes every later Schedule and Unschedule of the system
// through a counter.
func (s *System) CountClock() *countingRuntime {
	cr := &countingRuntime{Runtime: s.desRuntime()}
	s.rt = cr
	return cr
}

// tapRuntime is the DES runtime with a hook that sees every message the
// protocol sends, payload included (the network's tracer only names types),
// and sends what the hook returns.
type tapRuntime struct {
	*simnet.Runtime
	rewrite func(from, to runtime.Addr, msg any) any
}

func (r *tapRuntime) Send(from, to runtime.Addr, size int, msg any) {
	r.Runtime.Send(from, to, size, r.rewrite(from, to, msg))
}

// RewriteSends routes every later Send of the system through rewrite, which
// returns the message actually sent.
func (s *System) RewriteSends(rewrite func(from, to runtime.Addr, msg any) any) {
	s.rt = &tapRuntime{Runtime: s.desRuntime(), rewrite: rewrite}
}

// TapSends routes every later Send of the system through tap first.
func (s *System) TapSends(tap func(from, to runtime.Addr, msg any)) {
	s.RewriteSends(func(from, to runtime.Addr, msg any) any {
		tap(from, to, msg)
		return msg
	})
}

// Eng returns the simulation engine under the system's runtime.
func (s *System) Eng() *sim.Engine { return s.desRuntime().Eng }

// Net returns the simulated network under the system's runtime.
func (s *System) Net() *simnet.Network { return s.desRuntime().Net }

// Topo returns the physical topology under the system's runtime.
func (s *System) Topo() *topology.Graph { return s.desRuntime().Net.Topo }

// armed counts the entries whose idle timer is scheduled.
func (t idleTable[K, V]) armed() int {
	n := 0
	for _, e := range t {
		if e.timer.Active() {
			n++
		}
	}
	return n
}

// armedTimers counts the timers this peer has scheduled, bar its hello tick
// and finger ticker (a runtime.Ticker does not say whether it is armed).
func (p *Peer) armedTimers() int {
	n := 0
	if p.enh != nil {
		n += p.enh.cache.armed() + p.enh.bypass.armed()
	}
	for _, e := range p.sys.expiries {
		if slices.Contains(e.peers, p) {
			n++
		}
	}
	if p.join != nil && p.sys.rt.Scheduled(p.join.timer) {
		n++
	}
	for _, o := range p.sys.ops {
		if o.peer == p && p.sys.rt.Scheduled(o.timer) {
			n++
		}
	}
	return n
}

// swapRingState replaces the peer's ring state and returns the old one, so a
// test can plant a role the state does not match.
func (p *Peer) swapRingState(t *tState) *tState {
	old := p.t
	p.t = t
	return old
}

// numBypass counts the peer's bypass links.
func (p *Peer) numBypass() int {
	if p.enh == nil {
		return 0
	}
	return len(p.enh.bypass)
}

// HasItem reports whether the peer stores the item with the given key.
func (p *Peer) HasItem(key string) bool {
	return p.data.has(idspace.HashKey(key))
}

// linkCycle makes a and b each other's connect point and child: the
// connect-point cycle that a stale child edge can close.
func linkCycle(a, b *Peer) {
	a.cp, b.cp = b.Ref(), a.Ref()
	a.addChild(b.Ref())
	b.addChild(a.Ref())
}
