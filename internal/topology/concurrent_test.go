package topology

import (
	"sync"
	"testing"
)

// TestLatencyConcurrent exercises the lazily built latency table and
// shortest-path cache from many goroutines at once, all hitting overlapping
// pairs of a graph no Latency call has touched yet. Run under -race this is
// the regression test for the pathCache data race (the old map-based cache
// was populated without synchronization) and for the table's one-time build.
func TestLatencyConcurrent(t *testing.T) {
	ref, err := GenerateTransitStub(DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	// The same network as a Graph of its own, whose table is built by
	// whichever goroutine below asks first.
	g := &Graph{Nodes: ref.Nodes, Adj: ref.Adj}
	stubs := g.StubNodes()

	const goroutines = 8
	const pairs = 400
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < pairs; i++ {
				a := stubs[(i*7+gi)%len(stubs)]
				b := stubs[(i*13+gi*5)%len(stubs)]
				got, err := g.Latency(a, b)
				if err != nil {
					errs[gi] = err
					return
				}
				want, err := ref.Latency(a, b)
				if err != nil {
					errs[gi] = err
					return
				}
				if got != want {
					t.Errorf("goroutine %d: Latency(%d,%d) = %d, want %d", gi, a, b, got, want)
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if g.table() == nil {
		t.Fatal("a generated network built no latency table")
	}
}

// TestStubMatrixMatchesDijkstra checks that Latency returns exactly the
// distance a fresh Dijkstra run over the whole graph computes, for every
// ordered pair of nodes, transit endpoints included, across generator shapes
// and seeds: the hierarchical table is exact, not an approximation. A graph
// whose stub domain has two uplinks must fall back to Dijkstra and agree too.
func TestStubMatrixMatchesDijkstra(t *testing.T) {
	quick := DefaultConfig() // exp's quick-mode network
	quick.TransitDomains, quick.TransitNodesPerDomain = 2, 2
	quick.StubDomainsPerTransit, quick.StubNodesPerDomain = 2, 12
	oneTransit := DefaultConfig()
	oneTransit.TransitDomains, oneTransit.TransitNodesPerDomain = 1, 1
	oneStub := DefaultConfig()
	oneStub.StubNodesPerDomain = 1
	treeStubs := DefaultConfig()
	treeStubs.ExtraStubEdges = 0
	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"quick", quick},
		{"one-transit-node", oneTransit},
		{"one-stub-per-domain", oneStub},
		{"no-extra-stub-edges", treeStubs},
	}
	seeds := int64(12)
	if raceEnabled {
		seeds = 2
	}
	for _, c := range configs {
		for seed := int64(0); seed < seeds; seed++ {
			g, err := GenerateTransitStub(c.cfg, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			if g.table() == nil {
				t.Fatalf("%s seed %d: generated graph took the Dijkstra fallback", c.name, seed)
			}
			assertLatencyIsDijkstra(t, g, c.name)
		}
	}

	// Two transit nodes 100 apart and a stub domain {2, 3} with an uplink to
	// each: the backbone's shortest path runs through the stub domain (70),
	// which the single-uplink decomposition cannot see.
	g := &Graph{Nodes: []Node{
		{ID: 0, Kind: Transit}, {ID: 1, Kind: Transit},
		{ID: 2, Kind: Stub, Domain: 1}, {ID: 3, Kind: Stub, Domain: 1},
		{ID: 4, Kind: Stub, Domain: 2},
	}, Adj: make([][]Edge, 5)}
	g.addEdge(0, 1, 100)
	g.addEdge(2, 3, 50)
	g.addEdge(2, 0, 10)
	g.addEdge(3, 1, 10)
	g.addEdge(4, 1, 5)
	if g.table() != nil {
		t.Fatal("a stub domain with two uplinks got a hierarchical table")
	}
	if d, err := g.Latency(0, 1); err != nil || d != 70 {
		t.Fatalf("two-uplink Latency(0,1) = %d, %v; want 70 through the stub domain", d, err)
	}
	assertLatencyIsDijkstra(t, g, "two-uplink")
}

// assertLatencyIsDijkstra compares Latency with g.dijkstra for every ordered
// pair of g's nodes.
func assertLatencyIsDijkstra(t *testing.T, g *Graph, name string) {
	t.Helper()
	for a := range g.Nodes {
		want := g.dijkstra(a).dist
		for b := range g.Nodes {
			got, err := g.Latency(a, b)
			if err != nil {
				t.Fatalf("%s: Latency(%d,%d): %v", name, a, b, err)
			}
			if got != want[b] {
				t.Fatalf("%s: Latency(%d,%d) = %d, Dijkstra says %d", name, a, b, got, want[b])
			}
		}
	}
}
