package core

import (
	"testing"

	"repro/internal/sim"
)

func TestLeaveWhilePredIsJoining(t *testing.T) {
	// §3.3: pre mid-triangle postpones a leave request; the leaver retries
	// and eventually departs.
	sys := newTestSystem(t, 98, func(c *Config) { c.Ps = 0 })
	peers, _, err := sys.BuildPopulation(PopulationOpts{N: 10})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(5 * sim.Second)
	leaver := peers[4]
	pred := sys.Peer(leaver.t.pred.Addr)
	pred.joining = true // hold the mutex open by hand
	leaver.Leave()
	sys.Settle(2 * sim.Second)
	if !leaver.Alive() {
		t.Fatal("leave completed while pred was mid-triangle")
	}
	pred.joining = false
	pred.drainJoinQueue(pred.t)
	// The leaver's retry loop (or force-finish timeout) must conclude.
	sys.Settle(2 * sys.Cfg.JoinTimeout)
	if leaver.Alive() {
		t.Fatal("leave never completed after the triangle closed")
	}
	if err := sys.CheckRing(); err != nil {
		t.Fatal(err)
	}
}

func TestOrphanedSPeerRehomesThroughServer(t *testing.T) {
	// An s-peer whose whole ancestry (cp and t-peer) disappears at once
	// must re-home via the server rather than staying orphaned.
	sys := newTestSystem(t, 99, func(c *Config) {
		c.Ps = 0.75
		c.Delta = 2
	})
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 60}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(6 * sys.Cfg.HelloEvery)

	// Find a chain t-peer -> child -> grandchild.
	var grandchild *Peer
	for _, sp := range sys.SPeers() {
		parent := sys.Peer(sp.cp.Addr)
		if parent != nil && parent.Role == SPeer {
			grandchild = sp
			break
		}
	}
	if grandchild == nil {
		t.Skip("no depth-2 s-peer at this seed")
	}
	parent := sys.Peer(grandchild.cp.Addr)
	root := sys.Peer(grandchild.tpeer.Addr)
	// Crash the parent and the root together: the grandchild's rejoin
	// target is gone too.
	parent.Crash()
	root.Crash()
	sys.Settle(12 * sys.Cfg.HelloTimeout)

	if !grandchild.Alive() {
		t.Fatal("grandchild should survive")
	}
	if grandchild.Role == SPeer && !grandchild.cp.Valid() {
		t.Fatal("grandchild still orphaned after server re-homing window")
	}
	if err := sys.CheckTrees(); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckRing(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreWithNilCallback(t *testing.T) {
	sys := newTestSystem(t, 103, func(c *Config) { c.Ps = 0.5 })
	peers, _, err := sys.BuildPopulation(PopulationOpts{N: 20})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(5 * sim.Second)
	peers[0].Store("fire-and-forget", "v", nil)
	peers[1].Lookup("fire-and-forget", nil)
	sys.Settle(10 * sim.Second) // must not panic or wedge
	found := false
	for _, p := range sys.Peers() {
		if p.HasItem("fire-and-forget") {
			found = true
		}
	}
	if !found {
		t.Fatal("fire-and-forget store lost")
	}
}
