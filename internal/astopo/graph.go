// Package astopo implements the traceroute-based traffic-proxy baseline
// the paper discusses in §7 (the "weighted graph of the Internet" of
// Sanchez et al.): an AS-level topology with customer/provider/peer
// relationships, Gao-Rexford valley-free path computation, and a
// traceroute-campaign simulator that measures per-organization *path
// popularity* as a proxy for traffic volume.
//
// The paper's assessment, which the simulation reproduces: the proxy
// correlates with traffic but "requires massive traceroute campaigns,
// which are known to potentially include inaccuracies and biases based on
// the number and location of sources". Both failure modes are modelled —
// hop loss in traces and a vantage-point distribution skewed toward
// Europe and North America.
package astopo

import (
	"fmt"
	"sort"

	"repro/internal/geo"
	"repro/internal/orgs"
	"repro/internal/rng"
	"repro/internal/world"
)

// Rel is a business relationship between two nodes.
type Rel int

// Relationship kinds, from the perspective of the first node.
const (
	Customer Rel = iota // first pays second (c2p)
	Peer                // settlement-free
)

// Graph is an AS-organization-level topology. Nodes are dense int32
// indices in insertion order; each adjacency list is kept sorted by node
// name, so path computation breaks ties the same way whatever order the
// edges arrived in.
type Graph struct {
	names     []string         // node index -> ID
	index     map[string]int32 // ID -> node index
	providers [][]int32        // node -> providers
	customers [][]int32        // node -> customers
	peers     [][]int32        // node -> peers
}

// newGraph returns an empty graph.
func newGraph() *Graph {
	return &Graph{index: map[string]int32{}}
}

// addNode returns id's node index, adding the node if it is new.
func (g *Graph) addNode(id string) int32 {
	if n, ok := g.index[id]; ok {
		return n
	}
	n := int32(len(g.names))
	g.index[id] = n
	g.names = append(g.names, id)
	g.providers = append(g.providers, nil)
	g.customers = append(g.customers, nil)
	g.peers = append(g.peers, nil)
	return n
}

// AddEdge installs a relationship; for Customer, a pays b.
func (g *Graph) AddEdge(a, b string, rel Rel) {
	na, nb := g.addNode(a), g.addNode(b)
	switch rel {
	case Customer:
		g.providers[na] = g.insertSorted(g.providers[na], nb)
		g.customers[nb] = g.insertSorted(g.customers[nb], na)
	case Peer:
		g.peers[na] = g.insertSorted(g.peers[na], nb)
		g.peers[nb] = g.insertSorted(g.peers[nb], na)
	}
}

// insertSorted adds node v to s, kept sorted by node name, unless present.
func (g *Graph) insertSorted(s []int32, v int32) []int32 {
	name := g.names[v]
	i := sort.Search(len(s), func(i int) bool { return g.names[s[i]] >= name })
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// BuildGraph synthesizes a topology over the world's organizations:
//
//   - a full-mesh clique of global tier-1 transit networks;
//   - two or three regional transit networks per subregion, customers of
//     several tier-1s and peering among neighbours;
//   - every organization a customer of one to three of its region's
//     transits, with the largest eyeballs multihoming to a tier-1 and
//     cloud/CDN orgs peering broadly (their off-net footprint).
func BuildGraph(w *world.World, seed uint64) *Graph {
	g := newGraph()
	s := rng.New(seed).Split("astopo")

	// Tier-1 clique.
	const nTier1 = 12
	var tier1 []string
	for i := 0; i < nTier1; i++ {
		id := fmt.Sprintf("T1-%02d", i)
		g.addNode(id)
		tier1 = append(tier1, id)
	}
	for i := 0; i < nTier1; i++ {
		for j := i + 1; j < nTier1; j++ {
			g.AddEdge(tier1[i], tier1[j], Peer)
		}
	}

	// Regional transits.
	regional := map[geo.Subregion][]string{}
	for _, region := range geo.AllSubregions() {
		rs := s.Split("region/" + string(region))
		n := 2 + rs.Intn(2)
		for k := 0; k < n; k++ {
			id := fmt.Sprintf("RT-%s-%d", compactRegion(region), k)
			g.addNode(id)
			regional[region] = append(regional[region], id)
			// Customer of 2-4 tier-1s.
			for _, t := range pickDistinct(rs, tier1, 2+rs.Intn(3)) {
				g.AddEdge(id, t, Customer)
			}
		}
		// Regionals peer among themselves.
		rts := regional[region]
		for i := 0; i < len(rts); i++ {
			for j := i + 1; j < len(rts); j++ {
				g.AddEdge(rts[i], rts[j], Peer)
			}
		}
	}

	// Attach every org.
	for _, cc := range w.Countries() {
		m := w.Market(cc)
		region := m.Country.Subregion
		rts := regional[region]
		cs := s.Split("attach/" + cc)
		for _, e := range m.Entries {
			if e.Org.Home != cc {
				continue
			}
			id := e.Org.ID
			g.addNode(id)
			for _, rt := range pickDistinct(cs, rts, 1+cs.Intn(min(3, len(rts)))) {
				g.AddEdge(id, rt, Customer)
			}
			switch e.Org.Type {
			case orgs.ConvergedAccess, orgs.MobileCarrier, orgs.FixedAccess:
				// The biggest eyeballs multihome directly to a tier-1.
				if e.BaseWeight > 0.5 && cs.Bool(0.6) {
					g.AddEdge(id, tier1[cs.Intn(len(tier1))], Customer)
				}
			case orgs.CloudProvider, orgs.CDNProvider:
				// Clouds peer broadly across regions (their off-nets).
				allRegions := geo.AllSubregions()
				for k := 0; k < 4; k++ {
					r := allRegions[cs.Intn(len(allRegions))]
					if len(regional[r]) > 0 {
						g.AddEdge(id, regional[r][cs.Intn(len(regional[r]))], Peer)
					}
				}
			}
		}
	}
	return g
}

func compactRegion(r geo.Subregion) string {
	out := make([]byte, 0, 8)
	for i := 0; i < len(r); i++ {
		c := r[i]
		if c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = append(out, 'X')
	}
	return string(out)
}

func pickDistinct(s *rng.Stream, from []string, n int) []string {
	if n >= len(from) {
		return append([]string(nil), from...)
	}
	perm := s.Perm(len(from))
	out := make([]string, 0, n)
	for _, i := range perm[:n] {
		out = append(out, from[i])
	}
	sort.Strings(out)
	return out
}
