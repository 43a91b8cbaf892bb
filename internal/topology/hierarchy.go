package topology

import "math"

// hierarchy is the exact latency table of a transit-stub graph in which every
// stub domain hangs off the backbone by one link, the shape
// GenerateTransitStub builds. A shortest path between two nodes of one stub
// domain never leaves it: leaving and coming back crosses that one uplink
// twice, a cycle no shorter than staying. A path out of a stub domain must
// cross its uplink, and a shortest path between two transit nodes never
// enters a stub domain, for the same reason. So
//
//	Latency(a, b) = intra[a][b]                               a, b in one stub domain
//	              = up[a] + transit[att(a)][att(b)] + up[b]  otherwise
//
// where att(a) is the transit node a's domain hangs off (a itself on a
// transit node) and up[a] the latency from a to it (zero on a transit node).
// Every entry is a sum over the same links Dijkstra adds, so every value is
// identical to the full-graph shortest path.
type hierarchy struct {
	at      []place
	intra   []int64 // each stub domain's pairwise block, row-major, one after another
	transit []int64 // nt×nt, between transit nodes over backbone links
	nt      int
}

// place is where one node sits in the hierarchy.
type place struct {
	dom int32 // stub domain, -1 on a transit node
	idx int32 // index among its stub domain's members, or among the transit nodes
	row int32 // offset of its row in intra
	att int32 // transit index of the node its domain hangs off
	up  int64 // latency to that node
}

// latency answers one pair of distinct nodes from the table.
func (h *hierarchy) latency(a, b int) int64 {
	pa, pb := &h.at[a], &h.at[b]
	if pa.dom >= 0 && pa.dom == pb.dom {
		return h.intra[int(pa.row)+int(pb.idx)]
	}
	return pa.up + h.transit[int(pa.att)*h.nt+int(pb.att)] + pb.up
}

// buildHierarchy returns g's hierarchical latency table, or nil when g lacks
// the shape it relies on: every stub domain (the stub nodes sharing a Domain)
// connected on its own and joined to the rest by exactly one link, to a
// transit node, and the transit nodes connected among themselves. It takes
// Adj to hold both halves of every link, as addEdge stores them.
func (g *Graph) buildHierarchy() *hierarchy {
	h := &hierarchy{at: make([]place, len(g.Nodes))}
	doms := map[int]int32{}
	var members [][]int
	var transit []int
	for v, nd := range g.Nodes {
		p := &h.at[v]
		if nd.Kind == Transit {
			p.dom, p.idx, p.att = -1, int32(len(transit)), int32(len(transit))
			transit = append(transit, v)
			continue
		}
		d, ok := doms[nd.Domain]
		if !ok {
			d = int32(len(members))
			doms[nd.Domain] = d
			members = append(members, nil)
		}
		p.dom, p.idx = d, int32(len(members[d]))
		members[d] = append(members[d], v)
	}

	// Every link out of a stub domain must be its one uplink.
	type uplink struct {
		gw, n int
		e     Edge
	}
	ups := make([]uplink, len(members))
	for v := range g.Nodes {
		d := h.at[v].dom
		if d < 0 {
			continue
		}
		for _, e := range g.Adj[v] {
			switch to := h.at[e.To].dom; {
			case to == d:
			case to >= 0:
				return nil
			default:
				ups[d] = uplink{gw: v, n: ups[d].n + 1, e: e}
			}
		}
	}

	var ok bool
	if h.transit, ok = g.within(transit, h.at); !ok {
		return nil
	}
	h.nt = len(transit)
	for d, ms := range members {
		u := ups[d]
		if u.n != 1 {
			return nil
		}
		block, ok := g.within(ms, h.at)
		if !ok {
			return nil
		}
		base, gw := len(h.intra), int(h.at[u.gw].idx)
		h.intra = append(h.intra, block...)
		for i, v := range ms {
			p := &h.at[v]
			p.row = int32(base + i*len(ms))
			p.att = h.at[u.e.To].att
			p.up = block[i*len(ms)+gw] + u.e.Latency
		}
	}
	return h
}

// within returns the shortest-path latencies among members, one domain of
// the hierarchy, over the links between them alone: row-major in members
// order, or false when they are not connected on their own.
func (g *Graph) within(members []int, at []place) ([]int64, bool) {
	m := len(members)
	dist := make([]int64, m*m)
	for i := range dist {
		dist[i] = math.MaxInt64
	}
	var pq distHeap
	for i, src := range members {
		row := dist[i*m : (i+1)*m]
		row[i] = 0
		pq.push(distItem{node: src, dist: 0})
		for pq.Len() > 0 {
			it := pq.pop()
			if it.dist > row[at[it.node].idx] {
				continue
			}
			for _, e := range g.Adj[it.node] {
				to := at[e.To]
				if to.dom != at[src].dom {
					continue
				}
				if nd := it.dist + e.Latency; nd < row[to.idx] {
					row[to.idx] = nd
					pq.push(distItem{node: e.To, dist: nd})
				}
			}
		}
	}
	for _, d := range dist {
		if d == math.MaxInt64 {
			return nil, false
		}
	}
	return dist, true
}
