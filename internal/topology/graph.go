// Package topology generates and routes over transit-stub physical network
// topologies, standing in for the GT-ITM generator the paper uses.
//
// A transit-stub topology models the late-1990s Internet shape GT-ITM was
// built around: a small set of densely connected transit (backbone) domains,
// with many stub (edge) domains hanging off transit nodes. Overlay peers live
// on stub nodes; every overlay message crosses the physical shortest path
// between its endpoints, and its latency is the sum of physical link
// latencies along that path.
package topology

import (
	"fmt"
	"math"
	"sync"
)

// NodeKind classifies a physical node.
type NodeKind uint8

const (
	// Transit nodes form the backbone domains.
	Transit NodeKind = iota
	// Stub nodes form the edge domains where peers attach.
	Stub
)

func (k NodeKind) String() string {
	if k == Transit {
		return "transit"
	}
	return "stub"
}

// Node is a physical host/router.
type Node struct {
	ID     int
	Kind   NodeKind
	Domain int     // index of the domain the node belongs to
	X, Y   float64 // coordinates in the unit square, used for latencies
}

// Edge is a directed half of a physical link with a propagation latency in
// simulated microseconds.
type Edge struct {
	To      int
	Latency int64
}

// Graph is a physical network topology.
//
// Once generated, a Graph is immutable and safe for concurrent use: multiple
// simulation engines (e.g. parallel sweep points) may share one Graph and
// call Latency and Path from different goroutines. A Graph must not
// be copied after first use.
type Graph struct {
	Nodes []Node
	Adj   [][]Edge

	// sp memoizes single-source shortest-path trees, one slot per source
	// node, each computed at most once even under concurrent access.
	sp     []spSlot
	spInit sync.Once
	// hier is the exact latency table Latency answers from, built once; nil
	// when the graph lacks the single-uplink shape, and Latency falls back to
	// sp.
	hier     *hierarchy
	hierOnce sync.Once
}

// spSlot guards lazy computation of one source's shortest-path tree.
type spSlot struct {
	once sync.Once
	t    *spTree
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// addEdge inserts an undirected link; duplicate links are ignored.
func (g *Graph) addEdge(a, b int, latency int64) {
	if a == b {
		return
	}
	for _, e := range g.Adj[a] {
		if e.To == b {
			return
		}
	}
	g.Adj[a] = append(g.Adj[a], Edge{To: b, Latency: latency})
	g.Adj[b] = append(g.Adj[b], Edge{To: a, Latency: latency})
}

// Degree returns the number of links at node n.
func (g *Graph) Degree(n int) int { return len(g.Adj[n]) }

// StubNodes returns the ids of all stub nodes in ascending order.
func (g *Graph) StubNodes() []int {
	var out []int
	for _, n := range g.Nodes {
		if n.Kind == Stub {
			out = append(out, n.ID)
		}
	}
	return out
}

// TransitNodes returns the ids of all transit nodes in ascending order.
func (g *Graph) TransitNodes() []int {
	var out []int
	for _, n := range g.Nodes {
		if n.Kind == Transit {
			out = append(out, n.ID)
		}
	}
	return out
}

// Connected reports whether the graph is a single connected component.
func (g *Graph) Connected() bool {
	if len(g.Nodes) == 0 {
		return true
	}
	seen := make([]bool, len(g.Nodes))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Adj[n] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == len(g.Nodes)
}

// spTree is a single-source shortest-path tree.
type spTree struct {
	dist []int64
	prev []int
}

// shortestPaths returns the memoized Dijkstra tree from src, computing it at
// most once per source even when multiple goroutines race on the same source.
func (g *Graph) shortestPaths(src int) *spTree {
	g.spInit.Do(func() { g.sp = make([]spSlot, len(g.Nodes)) })
	slot := &g.sp[src]
	slot.once.Do(func() { slot.t = g.dijkstra(src) })
	return slot.t
}

// table returns the hierarchical latency table, building it on first use.
func (g *Graph) table() *hierarchy {
	g.hierOnce.Do(func() { g.hier = g.buildHierarchy() })
	return g.hier
}

// dijkstra computes a fresh single-source shortest-path tree.
func (g *Graph) dijkstra(src int) *spTree {
	n := len(g.Nodes)
	t := &spTree{dist: make([]int64, n), prev: make([]int, n)}
	for i := range t.dist {
		t.dist[i] = math.MaxInt64
		t.prev[i] = -1
	}
	t.dist[src] = 0

	pq := &distHeap{items: []distItem{{node: src, dist: 0}}}
	for pq.Len() > 0 {
		it := pq.pop()
		if it.dist > t.dist[it.node] {
			continue
		}
		for _, e := range g.Adj[it.node] {
			nd := it.dist + e.Latency
			if nd < t.dist[e.To] {
				t.dist[e.To] = nd
				t.prev[e.To] = it.node
				pq.push(distItem{node: e.To, dist: nd})
			}
		}
	}
	return t
}

// Latency returns the shortest-path latency between two nodes in simulated
// microseconds, or an error if they are disconnected. A transit-stub graph
// answers from its hierarchical table (see hierarchy); any other graph from
// per-source Dijkstra trees.
func (g *Graph) Latency(a, b int) (int64, error) {
	if a == b {
		return 0, nil
	}
	if h := g.table(); h != nil {
		return h.latency(a, b), nil
	}
	t := g.shortestPaths(a)
	if t.dist[b] == math.MaxInt64 {
		return 0, fmt.Errorf("topology: nodes %d and %d are disconnected", a, b)
	}
	return t.dist[b], nil
}

// PrecomputeStubMatrix does nothing: Latency needs no precomputation (see
// hierarchy). The method stays for callers written when a dense stub-to-stub
// table had to be requested.
func (g *Graph) PrecomputeStubMatrix(workers int) {}

// Path returns the node sequence of the shortest path from a to b, inclusive
// of both endpoints. Used for link-stress accounting.
func (g *Graph) Path(a, b int) ([]int, error) {
	if a == b {
		return []int{a}, nil
	}
	t := g.shortestPaths(a)
	if t.dist[b] == math.MaxInt64 {
		return nil, fmt.Errorf("topology: nodes %d and %d are disconnected", a, b)
	}
	var rev []int
	for n := b; n != -1; n = t.prev[n] {
		rev = append(rev, n)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// distItem and distHeap implement the Dijkstra priority queue without
// interface boxing.
type distItem struct {
	node int
	dist int64
}

type distHeap struct {
	items []distItem
}

func (h *distHeap) Len() int { return len(h.items) }

func (h *distHeap) push(it distItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].dist <= h.items[i].dist {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *distHeap) pop() distItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.items) && h.items[l].dist < h.items[small].dist {
			small = l
		}
		if r < len(h.items) && h.items[r].dist < h.items[small].dist {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}
