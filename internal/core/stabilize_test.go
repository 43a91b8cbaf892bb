package core

import (
	"testing"

	"repro/internal/idspace"
	"repro/internal/sim"
)

func TestStabilizationHealsHalfInsertion(t *testing.T) {
	// Construct the failure mode §3.3's triangles cannot survive: a
	// t-peer whose own pointers are right but at whom nobody points.
	sys := newTestSystem(t, 95, func(c *Config) { c.Ps = 0 })
	peers, _, err := sys.BuildPopulation(PopulationOpts{N: 12})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(5 * sim.Second)
	if err := sys.CheckRing(); err != nil {
		t.Fatal(err)
	}

	// Splice peer X out by hand: its neighbors bypass it, but X keeps its
	// own (correct) pointers — the half-inserted state.
	tps := sys.TPeers()
	x := tps[4]
	pred := sys.Peer(x.t.pred.Addr)
	succ := sys.Peer(x.t.succ.Addr)
	pred.t.succ = succ.Ref()
	succ.t.pred = pred.Ref()

	if err := sys.CheckRing(); err == nil {
		t.Fatal("splice did not break the ring (test setup wrong)")
	}
	// Stabilize/notify must reintegrate X.
	sys.Settle(8 * sys.Cfg.FingerRefreshEvery)
	if err := sys.CheckRing(); err != nil {
		t.Fatalf("stabilization failed to heal: %v", err)
	}
	_ = peers
}

func TestStabilizationHealsDanglingChain(t *testing.T) {
	// A whole consecutive segment of the ring dangles: each member points
	// forward correctly, but the main ring bypasses all of them. The
	// cascading stabilize walk must reattach the chain in one settle.
	sys := newTestSystem(t, 96, func(c *Config) { c.Ps = 0 })
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 16}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(5 * sim.Second)
	tps := sys.TPeers() // id-sorted
	// Bypass three consecutive members.
	before := sys.Peer(tps[5].t.pred.Addr)
	after := sys.Peer(tps[8].t.succ.Addr)
	before.t.succ = after.Ref()
	after.t.pred = before.Ref()

	sys.Settle(10 * sys.Cfg.FingerRefreshEvery)
	if err := sys.CheckRing(); err != nil {
		t.Fatalf("chain not reattached: %v", err)
	}
}

func TestRingNotifyTransfersLoad(t *testing.T) {
	// When stabilization adopts a new predecessor, the slice of the
	// segment it owns must move to it (same as a triangle insertion).
	sys := newTestSystem(t, 97, func(c *Config) {
		c.Ps = 0
		c.Placement = PlaceAtTPeer
	})
	peers, _, err := sys.BuildPopulation(PopulationOpts{N: 10})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(5 * sim.Second)
	for i := 0; i < 200; i++ {
		if _, err := sys.StoreSync(peers[i%10], keyf("st-%03d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	// Half-insert a "new" position: splice out a peer and let notify
	// reintegrate it; afterwards every item must be at its ring owner.
	tps := sys.TPeers()
	x := tps[3]
	pred := sys.Peer(x.t.pred.Addr)
	succ := sys.Peer(x.t.succ.Addr)
	pred.t.succ = succ.Ref()
	succ.t.pred = pred.Ref()
	// The successor now believes it owns x's segment; move x's items there
	// to simulate the worst case (data landed at the wrong owner).
	for _, it := range x.data.all() {
		succ.storeLocal(it)
	}
	x.data = didSet[Item]{}
	sys.Settle(10 * sys.Cfg.FingerRefreshEvery)
	if err := sys.CheckRing(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := keyf("st-%03d", i)
		owner := ownerOf(sys, idspace.HashKey(key))
		if owner == nil || !owner.HasItem(key) {
			t.Errorf("item %s not at ring owner after notify load transfer", key)
		}
	}
}
