package chord

import (
	"testing"

	"repro/internal/idspace"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topology"
)

func TestAliveAndAccessors(t *testing.T) {
	topo, err := topology.GenerateTransitStub(topology.DefaultConfig(), 31)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(31)
	net := simnet.New(eng, topo, simnet.DefaultConfig())
	cnet := NewNetwork(simnet.NewRuntime(eng, net), DefaultConfig())
	if cnet.Cfg != DefaultConfig() {
		t.Fatalf("Cfg %+v, want DefaultConfig", cnet.Cfg)
	}
	n := cnet.CreateNode(42, topo.StubNodes()[0], 1, simnet.None)
	if !n.Alive() {
		t.Fatal("fresh node not alive")
	}
	if n.Successor() != n.Addr {
		t.Fatal("singleton successor should be itself")
	}
	if cnet.Node(n.Addr) != n {
		t.Fatal("Node lookup")
	}
	n.Crash()
	if n.Alive() || cnet.Node(n.Addr) != nil {
		t.Fatal("crash did not deregister")
	}
	n.Crash() // idempotent
	n.Leave() // no-op on a dead node
}

func TestDataMovesToNewJoiner(t *testing.T) {
	// transferOwnedBelow: a new node joining between a key's id and its
	// current holder must receive the key.
	topo, err := topology.GenerateTransitStub(topology.DefaultConfig(), 33)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(33)
	net := simnet.New(eng, topo, simnet.DefaultConfig())
	cnet := NewNetwork(simnet.NewRuntime(eng, net), DefaultConfig())
	stubs := topo.StubNodes()

	a := cnet.CreateNode(idspace.ID(100), stubs[0], 1, simnet.None)
	b := cnet.CreateNode(idspace.ID(1<<63), stubs[1], 1, a.Addr)
	eng.RunUntil(eng.Now() + 20*sim.Second)

	// Store a key owned by b (id in (100, 2^63]).
	var key string
	for i := 0; ; i++ {
		k := keyfmt(i)
		if idspace.Between(a.ID, idspace.HashKey(k), b.ID) {
			key = k
			break
		}
	}
	done := false
	a.Store(key, "v", func(Result) { done = true })
	for !done && eng.Step() {
	}
	if _, ok := b.data[idspace.HashKey(key)]; !ok {
		t.Fatalf("key not at owner b")
	}

	// A third node joins just past the key: ownership moves to it.
	mid := idspace.HashKey(key) + 1
	c := cnet.CreateNode(mid, stubs[2], 1, a.Addr)
	eng.RunUntil(eng.Now() + 30*sim.Second)
	if _, ok := c.data[idspace.HashKey(key)]; !ok {
		t.Fatalf("key did not transfer to the new owner (c id just past key)")
	}
	if _, still := b.data[idspace.HashKey(key)]; still {
		t.Fatal("key duplicated instead of moved")
	}
}

func keyfmt(i int) string {
	return "edge-key-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
}
