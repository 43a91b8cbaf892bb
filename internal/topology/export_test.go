package topology

// Test-only helpers: readings of a graph or a configuration that no
// shipped code needs.

// NumEdges returns the number of undirected links.
func (g *Graph) NumEdges() int {
	total := 0
	for _, es := range g.Adj {
		total += len(es)
	}
	return total / 2
}

// TotalNodes returns the node count the configuration will generate.
func (c Config) TotalNodes() int {
	transit := c.TransitDomains * c.TransitNodesPerDomain
	stubs := transit * c.StubDomainsPerTransit * c.StubNodesPerDomain
	return transit + stubs
}
