package astopo

import (
	"sort"
	"strings"
)

// Test-only views of the graph and its path trees.

// Nodes returns all node IDs, sorted.
func (g *Graph) Nodes() []string {
	out := append([]string(nil), g.names...)
	sort.Strings(out)
	return out
}

// Tier1 returns the global transit clique, sorted.
func (g *Graph) Tier1() []string {
	var out []string
	for _, id := range g.Nodes() {
		if strings.HasPrefix(id, "T1-") {
			out = append(out, id)
		}
	}
	return out
}

// Degree returns (providers, customers, peers) counts for a node.
func (g *Graph) Degree(id string) (prov, cust, peer int) {
	n, ok := g.index[id]
	if !ok {
		return 0, 0, 0
	}
	return len(g.providers[n]), len(g.customers[n]), len(g.peers[n])
}

// Dist returns the AS-hop distance to dst, or -1 if unreachable.
func (p *Paths) Dist(dst string) int {
	node, phase, ok := p.best(dst)
	if !ok {
		return -1
	}
	return int(p.states[node][phase].dist)
}
