package topology

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultConfigScale(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	n := cfg.TotalNodes()
	if n < 800 || n > 1200 {
		t.Fatalf("default config generates %d nodes; the paper uses ~1000", n)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := GenerateTransitStub(DefaultConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTransitStub(DefaultConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("node %d differs", i)
		}
	}
}

func TestGenerateConnectedAcrossSeeds(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g, err := GenerateTransitStub(DefaultConfig(), seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !g.Connected() {
			t.Fatalf("seed %d: disconnected", seed)
		}
	}
}

func TestNodeKinds(t *testing.T) {
	cfg := DefaultConfig()
	g, err := GenerateTransitStub(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantTransit := cfg.TransitDomains * cfg.TransitNodesPerDomain
	if got := len(g.TransitNodes()); got != wantTransit {
		t.Fatalf("transit nodes = %d, want %d", got, wantTransit)
	}
	if got := len(g.StubNodes()); got != g.NumNodes()-wantTransit {
		t.Fatalf("stub nodes = %d", got)
	}
	if Transit.String() != "transit" || Stub.String() != "stub" {
		t.Fatal("NodeKind strings")
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []Config{
		{TransitDomains: 0, TransitNodesPerDomain: 1, StubNodesPerDomain: 1, TransitScale: 1, LatencyPerUnit: 1},
		{TransitDomains: 1, TransitNodesPerDomain: 0, StubNodesPerDomain: 1, TransitScale: 1, LatencyPerUnit: 1},
		{TransitDomains: 1, TransitNodesPerDomain: 1, StubDomainsPerTransit: -1, StubNodesPerDomain: 1, TransitScale: 1, LatencyPerUnit: 1},
		{TransitDomains: 1, TransitNodesPerDomain: 1, StubNodesPerDomain: 0, TransitScale: 1, LatencyPerUnit: 1},
		{TransitDomains: 1, TransitNodesPerDomain: 1, StubNodesPerDomain: 1, TransitScale: 0, LatencyPerUnit: 1},
		{TransitDomains: 1, TransitNodesPerDomain: 1, StubNodesPerDomain: 1, TransitScale: 1, LatencyPerUnit: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
		if _, err := GenerateTransitStub(cfg, 1); err == nil {
			t.Errorf("case %d: generation accepted invalid config", i)
		}
	}
}

func TestLatencySymmetricAndPositive(t *testing.T) {
	g, err := GenerateTransitStub(DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a := rng.Intn(g.NumNodes())
		b := rng.Intn(g.NumNodes())
		lab, err := g.Latency(a, b)
		if err != nil {
			t.Fatal(err)
		}
		lba, err := g.Latency(b, a)
		if err != nil {
			t.Fatal(err)
		}
		if lab != lba {
			t.Fatalf("latency asymmetric: %d vs %d", lab, lba)
		}
		if a != b && lab <= 0 {
			t.Fatalf("non-positive latency %d", lab)
		}
		if a == b && lab != 0 {
			t.Fatalf("self latency %d", lab)
		}
	}
}

func TestPathValidAndMatchesLatency(t *testing.T) {
	g, err := GenerateTransitStub(DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	edgeLat := func(a, b int) (int64, bool) {
		for _, e := range g.Adj[a] {
			if e.To == b {
				return e.Latency, true
			}
		}
		return 0, false
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		a := rng.Intn(g.NumNodes())
		b := rng.Intn(g.NumNodes())
		path, err := g.Path(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if path[0] != a || path[len(path)-1] != b {
			t.Fatalf("path endpoints %d..%d, want %d..%d", path[0], path[len(path)-1], a, b)
		}
		var sum int64
		for j := 1; j < len(path); j++ {
			l, ok := edgeLat(path[j-1], path[j])
			if !ok {
				t.Fatalf("path uses nonexistent edge %d-%d", path[j-1], path[j])
			}
			sum += l
		}
		want, _ := g.Latency(a, b)
		if sum != want {
			t.Fatalf("path latency %d != shortest %d", sum, want)
		}
	}
}

// TestDijkstraAgainstBruteForce cross-checks shortest paths on small random
// graphs against Floyd-Warshall.
func TestDijkstraAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 3
		g := &Graph{Nodes: make([]Node, n), Adj: make([][]Edge, n)}
		for i := range g.Nodes {
			g.Nodes[i] = Node{ID: i, Kind: Stub}
		}
		// Ring to guarantee connectivity plus random chords.
		for i := 0; i < n; i++ {
			g.addEdge(i, (i+1)%n, int64(rng.Intn(50)+1))
		}
		for i := 0; i < n; i++ {
			g.addEdge(rng.Intn(n), rng.Intn(n), int64(rng.Intn(50)+1))
		}
		// Floyd-Warshall.
		const inf = math.MaxInt64 / 4
		d := make([][]int64, n)
		for i := range d {
			d[i] = make([]int64, n)
			for j := range d[i] {
				if i != j {
					d[i][j] = inf
				}
			}
			for _, e := range g.Adj[i] {
				if e.Latency < d[i][e.To] {
					d[i][e.To] = e.Latency
				}
			}
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if d[i][k]+d[k][j] < d[i][j] {
						d[i][j] = d[i][k] + d[k][j]
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				got, err := g.Latency(i, j)
				if err != nil || got != d[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

func TestDisconnectedError(t *testing.T) {
	g := &Graph{
		Nodes: []Node{{ID: 0}, {ID: 1}},
		Adj:   make([][]Edge, 2),
	}
	if _, err := g.Latency(0, 1); err == nil {
		t.Fatal("disconnected latency did not error")
	}
	if _, err := g.Path(0, 1); err == nil {
		t.Fatal("disconnected path did not error")
	}
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestTransitBackboneLongerThanStubLinks(t *testing.T) {
	g, err := GenerateTransitStub(DefaultConfig(), 8)
	if err != nil {
		t.Fatal(err)
	}
	// Average latency between transit nodes of different domains should
	// exceed the average intra-stub-domain link latency (TransitScale).
	trans := g.TransitNodes()
	var interTransit, n1 float64
	for i := 0; i < len(trans); i++ {
		for j := i + 1; j < len(trans); j++ {
			if g.Nodes[trans[i]].Domain != g.Nodes[trans[j]].Domain {
				l, _ := g.Latency(trans[i], trans[j])
				interTransit += float64(l)
				n1++
			}
		}
	}
	var intraStub, n2 float64
	for _, s := range g.StubNodes() {
		for _, e := range g.Adj[s] {
			if g.Nodes[e.To].Kind == Stub && g.Nodes[e.To].Domain == g.Nodes[s].Domain {
				intraStub += float64(e.Latency)
				n2++
			}
		}
	}
	if interTransit/n1 <= intraStub/n2 {
		t.Fatalf("backbone paths (%.0f) not longer than stub links (%.0f)", interTransit/n1, intraStub/n2)
	}
}
