package core

import (
	"testing"

	"repro/internal/runtime"
)

// quietTreeSystem builds a small settled system whose hello tick is far off,
// so the messages a test counts are the ones it provokes.
func quietTreeSystem(t *testing.T) *System {
	t.Helper()
	sys := newTestSystem(t, 11, func(c *Config) {
		c.Ps = 0.9
		c.HelloEvery = 1000 * runtime.Second
		c.HelloTimeout = 2000 * runtime.Second
	})
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 30}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(10 * runtime.Second)
	return sys
}

// countSends counts the messages of type M the system sends from now on.
func countSends[M any](sys *System) *int {
	n := new(int)
	sys.TapSends(func(_, _ runtime.Addr, msg any) {
		if _, ok := msg.(M); ok {
			*n++
		}
	})
	return n
}

// TestSizeReportStopsOnConnectPointCycle makes two s-peers each other's
// connect point. Around that cycle every report raises the next count, so
// one change would be passed round for ever; the hop count stops it after
// routeHopLimit reports.
func TestSizeReportStopsOnConnectPointCycle(t *testing.T) {
	sys := quietTreeSystem(t)
	sps := sys.SPeers()
	a, b := sps[0], sps[1]
	linkCycle(a, b)
	reports := countSends[sizeReport](sys)
	a.recv(b.Addr, sizeReport{Size: 5, Hops: 1})
	sys.Settle(200 * runtime.Second)
	if *reports < 2 || *reports > routeHopLimit {
		t.Fatalf("one change around a connect-point cycle sent %d reports, want 2..%d", *reports, routeHopLimit)
	}
}

// TestIgnoredAckReleasesTheEdge sends an attached s-peer the ack of a join
// attempt it abandoned: the acceptor listed it as a child all the same, and
// must drop that edge once the joiner answers, not a watchdog timeout later.
func TestIgnoredAckReleasesTheEdge(t *testing.T) {
	sys := quietTreeSystem(t)
	j := sys.SPeers()[0]
	var y *Peer
	for _, p := range sys.SPeers() {
		if p != j && p.Addr != j.cp.Addr && p.childIndex(j.Addr) < 0 && p.acceptChild() {
			y = p
			break
		}
	}
	y.handleSJoinReq(sJoinReq{Joiner: Ref{Addr: j.Addr}, Epoch: int(j.joinEpoch) - 1, Hops: 1})
	if y.childIndex(j.Addr) < 0 {
		t.Fatal("the acceptor did not list the joiner")
	}
	sys.Settle(5 * runtime.Second)
	if y.childIndex(j.Addr) >= 0 {
		t.Fatalf("peer %d still lists %d, whose connect point is %d", y.Addr, j.Addr, j.cp.Addr)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHelloReleasesAPhantomEdge gives a peer a child edge to an s-peer that
// hangs off someone else, with no ack to answer (it was lost): the child's
// answer to the phantom parent's next hello releases the edge.
func TestHelloReleasesAPhantomEdge(t *testing.T) {
	sys := quietTreeSystem(t)
	j := sys.SPeers()[0]
	y := sys.TPeers()[0]
	if y.Addr == j.cp.Addr {
		y = sys.TPeers()[1]
	}
	y.addChild(Ref{ID: y.ID, Addr: j.Addr})
	leaves := countSends[sLeaveMsg](sys)
	y.broadcastHello()
	sys.Settle(5 * runtime.Second)
	if y.childIndex(j.Addr) >= 0 || *leaves != 1 {
		t.Fatalf("after one hello, peer %d lists %d: %v (%d releases sent)", y.Addr, j.Addr, y.childIndex(j.Addr) >= 0, *leaves)
	}
}
