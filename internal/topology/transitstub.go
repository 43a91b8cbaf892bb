package topology

import (
	"fmt"
	"math"
	"math/rand"
)

// Config parameterizes transit-stub generation, mirroring the GT-ITM knobs.
// The defaults produce roughly 1,000 nodes, matching the paper's setup
// ("each network topology is composed of 1,000 nodes").
type Config struct {
	// TransitDomains is the number of backbone domains.
	TransitDomains int
	// TransitNodesPerDomain is the size of each backbone domain.
	TransitNodesPerDomain int
	// StubDomainsPerTransit is how many stub domains attach to each
	// transit node.
	StubDomainsPerTransit int
	// StubNodesPerDomain is the size of each stub domain.
	StubNodesPerDomain int
	// ExtraTransitEdges adds this many random extra backbone links beyond
	// the connectivity spanning structure.
	ExtraTransitEdges int
	// ExtraStubEdges adds this many random extra intra-stub links per
	// stub domain.
	ExtraStubEdges int
	// TransitScale stretches backbone link latencies relative to stub
	// links; backbone hops are long-haul.
	TransitScale float64
	// BaseLatency is the minimum per-link latency in microseconds.
	BaseLatency int64
	// LatencyPerUnit converts Euclidean coordinate distance to
	// microseconds of propagation delay.
	LatencyPerUnit float64
}

// DefaultConfig returns the configuration used by the paper-scale
// experiments: 4 transit domains x 4 nodes, 3 stub domains per transit node,
// ~20 nodes per stub domain => 16 + 48*20.5 ~= 1,000 nodes.
func DefaultConfig() Config {
	return Config{
		TransitDomains:        4,
		TransitNodesPerDomain: 4,
		StubDomainsPerTransit: 3,
		StubNodesPerDomain:    20,
		ExtraTransitEdges:     6,
		ExtraStubEdges:        4,
		TransitScale:          10,
		BaseLatency:           500,   // 0.5 ms minimum per link
		LatencyPerUnit:        20000, // unit square crossing ~= 20 ms
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.TransitDomains < 1:
		return fmt.Errorf("topology: TransitDomains %d < 1", c.TransitDomains)
	case c.TransitNodesPerDomain < 1:
		return fmt.Errorf("topology: TransitNodesPerDomain %d < 1", c.TransitNodesPerDomain)
	case c.StubDomainsPerTransit < 0:
		return fmt.Errorf("topology: StubDomainsPerTransit %d < 0", c.StubDomainsPerTransit)
	case c.StubNodesPerDomain < 1:
		return fmt.Errorf("topology: StubNodesPerDomain %d < 1", c.StubNodesPerDomain)
	case c.TransitScale <= 0:
		return fmt.Errorf("topology: TransitScale %v <= 0", c.TransitScale)
	case c.LatencyPerUnit <= 0:
		return fmt.Errorf("topology: LatencyPerUnit %v <= 0", c.LatencyPerUnit)
	}
	return nil
}

// GenerateTransitStub builds a random transit-stub topology. The same
// (config, seed) pair always yields the same graph.
func GenerateTransitStub(cfg Config, seed int64) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	g := &Graph{}

	latency := func(a, b Node, scale float64) int64 {
		dx, dy := a.X-b.X, a.Y-b.Y
		d := math.Sqrt(dx*dx + dy*dy)
		l := cfg.BaseLatency + int64(d*cfg.LatencyPerUnit*scale)
		if l < cfg.BaseLatency {
			l = cfg.BaseLatency
		}
		return l
	}

	// Place transit domains at well-separated anchor points and scatter
	// their nodes tightly around each anchor.
	nextDomain := 0
	transitByDomain := make([][]int, cfg.TransitDomains)
	for d := 0; d < cfg.TransitDomains; d++ {
		angle := 2 * math.Pi * float64(d) / float64(cfg.TransitDomains)
		ax := 0.5 + 0.35*math.Cos(angle)
		ay := 0.5 + 0.35*math.Sin(angle)
		for i := 0; i < cfg.TransitNodesPerDomain; i++ {
			n := Node{
				ID:     len(g.Nodes),
				Kind:   Transit,
				Domain: nextDomain,
				X:      ax + (rng.Float64()-0.5)*0.08,
				Y:      ay + (rng.Float64()-0.5)*0.08,
			}
			g.Nodes = append(g.Nodes, n)
			g.Adj = append(g.Adj, nil)
			transitByDomain[d] = append(transitByDomain[d], n.ID)
		}
		nextDomain++
	}

	// Wire each transit domain internally as a ring plus random chords so
	// it is always connected.
	for _, nodes := range transitByDomain {
		wireDomain(g, nodes, rng, func(a, b int) int64 {
			return latency(g.Nodes[a], g.Nodes[b], 1)
		})
	}

	// Connect transit domains: a ring of domains plus random extra
	// inter-domain links.
	for d := 0; d < cfg.TransitDomains; d++ {
		next := (d + 1) % cfg.TransitDomains
		if next == d {
			break
		}
		a := transitByDomain[d][rng.Intn(len(transitByDomain[d]))]
		b := transitByDomain[next][rng.Intn(len(transitByDomain[next]))]
		g.addEdge(a, b, latency(g.Nodes[a], g.Nodes[b], cfg.TransitScale))
	}
	allTransit := g.TransitNodes()
	for i := 0; i < cfg.ExtraTransitEdges && len(allTransit) > 1; i++ {
		a := allTransit[rng.Intn(len(allTransit))]
		b := allTransit[rng.Intn(len(allTransit))]
		if a != b {
			g.addEdge(a, b, latency(g.Nodes[a], g.Nodes[b], cfg.TransitScale))
		}
	}

	// Attach stub domains to transit nodes.
	for _, tn := range allTransit {
		for s := 0; s < cfg.StubDomainsPerTransit; s++ {
			// Scatter the stub domain near its transit node.
			cx := g.Nodes[tn].X + (rng.Float64()-0.5)*0.12
			cy := g.Nodes[tn].Y + (rng.Float64()-0.5)*0.12
			var members []int
			for i := 0; i < cfg.StubNodesPerDomain; i++ {
				n := Node{
					ID:     len(g.Nodes),
					Kind:   Stub,
					Domain: nextDomain,
					X:      cx + (rng.Float64()-0.5)*0.05,
					Y:      cy + (rng.Float64()-0.5)*0.05,
				}
				g.Nodes = append(g.Nodes, n)
				g.Adj = append(g.Adj, nil)
				members = append(members, n.ID)
			}
			nextDomain++
			wireDomain(g, members, rng, func(a, b int) int64 {
				return latency(g.Nodes[a], g.Nodes[b], 1)
			})
			for i := 0; i < cfg.ExtraStubEdges && len(members) > 1; i++ {
				a := members[rng.Intn(len(members))]
				b := members[rng.Intn(len(members))]
				if a != b {
					g.addEdge(a, b, latency(g.Nodes[a], g.Nodes[b], 1))
				}
			}
			// Uplink: one gateway stub node connects to the transit node,
			// the domain's only link out, which makes Latency's
			// hierarchical table exact (see hierarchy).
			gw := members[rng.Intn(len(members))]
			g.addEdge(gw, tn, latency(g.Nodes[gw], g.Nodes[tn], 2))
		}
	}

	if !g.Connected() {
		return nil, fmt.Errorf("topology: generated graph is disconnected (seed %d)", seed)
	}
	g.table()
	return g, nil
}

// wireDomain connects the node set as a ring plus a few random chords,
// guaranteeing intra-domain connectivity.
func wireDomain(g *Graph, nodes []int, rng *rand.Rand, lat func(a, b int) int64) {
	if len(nodes) <= 1 {
		return
	}
	for i := range nodes {
		a, b := nodes[i], nodes[(i+1)%len(nodes)]
		if a == b {
			continue
		}
		g.addEdge(a, b, lat(a, b))
	}
	chords := len(nodes) / 3
	for i := 0; i < chords; i++ {
		a := nodes[rng.Intn(len(nodes))]
		b := nodes[rng.Intn(len(nodes))]
		if a != b {
			g.addEdge(a, b, lat(a, b))
		}
	}
}
