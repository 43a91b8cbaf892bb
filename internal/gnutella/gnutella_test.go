package gnutella

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topology"
)

func mesh(t *testing.T, n int, seed int64, cfg Config) (*sim.Engine, *Network, []*Peer) {
	t.Helper()
	tc := topology.Config{
		TransitDomains: 2, TransitNodesPerDomain: 2,
		StubDomainsPerTransit: 2, StubNodesPerDomain: 12,
		ExtraTransitEdges: 2, ExtraStubEdges: 2,
		TransitScale: 10, BaseLatency: 500, LatencyPerUnit: 20000,
	}
	topo, err := topology.GenerateTransitStub(tc, seed)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(seed)
	net := simnet.New(eng, topo, simnet.DefaultConfig())
	gnet := NewNetwork(simnet.NewRuntime(eng, net), cfg)
	stubs := topo.StubNodes()
	peers := make([]*Peer, n)
	for i := range peers {
		peers[i] = gnet.Join(stubs[eng.Rand().Intn(len(stubs))], 1)
	}
	return eng, gnet, peers
}

func search(t *testing.T, eng *sim.Engine, p *Peer, key string, ttl int) Result {
	t.Helper()
	done := false
	var r Result
	p.Lookup(key, ttl, func(res Result) { done = true; r = res })
	for steps := 0; !done; steps++ {
		if steps > 20_000_000 {
			t.Fatal("lookup stuck")
		}
		if !eng.Step() {
			t.Fatal("engine dry before lookup resolved")
		}
	}
	return r
}

func TestJoinDegrees(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DegreeTarget = 4
	_, gnet, peers := mesh(t, 100, 1, cfg)
	if len(gnet.Peers()) != 100 {
		t.Fatal("peer count")
	}
	for i, p := range peers {
		if i > 0 && p.Degree() == 0 {
			t.Fatalf("peer %d isolated", i)
		}
	}
	// The first few joiners cannot reach the target degree; later ones get
	// exactly DegreeTarget links at join time (plus links from even later
	// joiners).
	last := peers[99]
	if last.Degree() < 4 {
		t.Fatalf("late joiner degree %d < 4", last.Degree())
	}
	// Symmetry: every neighbor lists us back.
	for _, p := range peers {
		for _, nb := range p.Neighbors() {
			q := gnet.Peer(nb)
			found := false
			for _, back := range q.Neighbors() {
				if back == p.Addr {
					found = true
				}
			}
			if !found {
				t.Fatalf("asymmetric link %d->%d", p.Addr, nb)
			}
		}
	}
}

func TestFloodingFindsNearbyData(t *testing.T) {
	eng, _, peers := mesh(t, 80, 2, DefaultConfig())
	owner := peers[10]
	owner.StoreLocal("the-file", "payload")
	// A direct neighbor finds it in one hop.
	nb := peers[10].Neighbors()[0]
	var nbPeer *Peer
	for _, p := range peers {
		if p.Addr == nb {
			nbPeer = p
		}
	}
	r := search(t, eng, nbPeer, "the-file", 2)
	if !r.OK || r.Value != "payload" {
		t.Fatalf("neighbor lookup failed: %+v", r)
	}
	if r.Hops > 2 {
		t.Fatalf("neighbor lookup took %d hops", r.Hops)
	}
}

func TestLocalHitIsImmediate(t *testing.T) {
	eng, _, peers := mesh(t, 20, 3, DefaultConfig())
	peers[5].StoreLocal("mine", "v")
	r := search(t, eng, peers[5], "mine", 1)
	if !r.OK || r.Hops != 0 {
		t.Fatalf("local hit: %+v", r)
	}
}

func TestTTLBoundsReach(t *testing.T) {
	// A line topology: peers joined with DegreeTarget 1 form a tree/line;
	// TTL 1 must fail for distant data while a large TTL succeeds.
	cfg := DefaultConfig()
	cfg.DegreeTarget = 1
	cfg.LookupTimeout = 5 * sim.Second
	eng, _, peers := mesh(t, 30, 4, cfg)
	peers[29].StoreLocal("far", "v")
	rSmall := search(t, eng, peers[0], "far", 1)
	rBig := search(t, eng, peers[0], "far", 64)
	if rSmall.OK {
		t.Fatal("TTL 1 should not reach distant data in a sparse overlay")
	}
	if !rBig.OK {
		t.Fatal("large TTL failed to find data in a connected overlay")
	}
}

func TestFailureRatioDropsWithTTL(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DegreeTarget = 3
	cfg.LookupTimeout = 3 * sim.Second
	eng, _, peers := mesh(t, 150, 5, cfg)
	for i := 0; i < 100; i++ {
		peers[(i*7)%150].StoreLocal(fmt.Sprintf("f-%03d", i), "v")
	}
	fail := func(ttl int) int {
		fails := 0
		for i := 0; i < 100; i++ {
			r := search(t, eng, peers[(i*13+1)%150], fmt.Sprintf("f-%03d", i), ttl)
			if !r.OK {
				fails++
			}
		}
		return fails
	}
	f2, f6 := fail(2), fail(6)
	if f6 > f2 {
		t.Fatalf("failures grew with TTL: ttl2=%d ttl6=%d", f2, f6)
	}
	if f2 == 0 {
		t.Log("note: ttl2 already found everything (dense overlay)")
	}
}

func TestDuplicateDeliveriesCounted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DegreeTarget = 6 // dense mesh => duplicates guaranteed
	eng, gnet, peers := mesh(t, 60, 6, cfg)
	peers[59].StoreLocal("dup-target", "v")
	search(t, eng, peers[0], "no-such-key", 5) // full flood, no early stop
	if gnet.DuplicateDeliveries == 0 {
		t.Fatal("dense mesh flooding produced no duplicates")
	}
	if gnet.QueryDeliveries == 0 {
		t.Fatal("no deliveries counted")
	}
}

func TestLeaveNotifiesNeighbors(t *testing.T) {
	eng, gnet, peers := mesh(t, 30, 8, DefaultConfig())
	victim := peers[10]
	nbs := victim.Neighbors()
	victim.Leave()
	eng.RunUntil(eng.Now() + 5*sim.Second)
	if gnet.Peer(victim.Addr) != nil {
		t.Fatal("left peer still registered")
	}
	for _, nb := range nbs {
		p := gnet.Peer(nb)
		for _, back := range p.Neighbors() {
			if back == victim.Addr {
				t.Fatalf("peer %d still lists the departed neighbor", nb)
			}
		}
	}
}

func TestCrashLeavesStaleLinks(t *testing.T) {
	eng, gnet, peers := mesh(t, 30, 9, DefaultConfig())
	victim := peers[10]
	nbs := victim.Neighbors()
	victim.Crash()
	eng.RunUntil(eng.Now() + 5*sim.Second)
	// Pure Gnutella has no repair: stale links remain but queries still
	// resolve around them.
	stale := 0
	for _, nb := range nbs {
		p := gnet.Peer(nb)
		for _, back := range p.Neighbors() {
			if back == victim.Addr {
				stale++
			}
		}
	}
	if stale == 0 {
		t.Fatal("expected stale links after an abrupt crash (no repair protocol)")
	}
	peers[0].StoreLocal("post-crash", "v")
	r := search(t, eng, peers[1], "post-crash", 6)
	if !r.OK {
		t.Fatal("network unusable after a single crash")
	}
}

func TestQueryStopsOnHit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DegreeTarget = 2
	eng, gnet, peers := mesh(t, 40, 10, cfg)
	peers[1].StoreLocal("close", "v")
	before := gnet.QueryDeliveries
	r := search(t, eng, peers[0], "close", 6)
	if !r.OK {
		t.Fatal("lookup failed")
	}
	// The flood stops at the hit, so deliveries stay well below N.
	if gnet.QueryDeliveries-before > 40 {
		t.Fatalf("flood did not stop on hit: %d deliveries", gnet.QueryDeliveries-before)
	}
}
