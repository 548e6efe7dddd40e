package astopo

import (
	"reflect"
	"testing"

	"repro/internal/world"
)

// The reference below is the valley-free BFS as it stood when the graph
// kept name-keyed adjacency maps and the path tree was a map of per-node
// state pointers. The index-based PathsFrom must reproduce its paths and
// distances exactly.

type refGraph struct {
	providers map[string][]string
	customers map[string][]string
	peers     map[string][]string
}

// newRefGraph lays a graph's adjacency out as the reference's
// name-keyed maps, each list in the graph's (name-sorted) order.
func newRefGraph(g *Graph) *refGraph {
	r := &refGraph{
		providers: map[string][]string{},
		customers: map[string][]string{},
		peers:     map[string][]string{},
	}
	names := func(idx []int32) []string {
		var out []string
		for _, n := range idx {
			out = append(out, g.names[n])
		}
		return out
	}
	for n, id := range g.names {
		r.providers[id] = names(g.providers[n])
		r.customers[id] = names(g.customers[n])
		r.peers[id] = names(g.peers[n])
	}
	return r
}

type refState struct {
	dist   int
	parent string
	pphase int
	seen   bool
}

type refPaths struct {
	src    string
	states map[string]*[3]refState
}

func (g *refGraph) pathsFrom(src string) *refPaths {
	p := &refPaths{src: src, states: map[string]*[3]refState{}}
	get := func(n string) *[3]refState {
		st := p.states[n]
		if st == nil {
			st = &[3]refState{}
			p.states[n] = st
		}
		return st
	}
	if _, ok := g.providers[src]; !ok {
		return p
	}
	type item struct {
		node  string
		phase int
	}
	start := get(src)
	start[phaseUp] = refState{dist: 0, seen: true}
	queue := []item{{src, int(phaseUp)}}
	push := func(n string, phase, dist int, parent string, pphase int) {
		st := get(n)
		if st[phase].seen {
			return
		}
		st[phase] = refState{dist: dist, parent: parent, pphase: pphase, seen: true}
		queue = append(queue, item{n, phase})
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		d := get(cur.node)[cur.phase].dist
		switch int8(cur.phase) {
		case phaseUp:
			for _, prov := range g.providers[cur.node] {
				push(prov, int(phaseUp), d+1, cur.node, cur.phase)
			}
			for _, peer := range g.peers[cur.node] {
				push(peer, int(phasePeer), d+1, cur.node, cur.phase)
			}
			for _, cust := range g.customers[cur.node] {
				push(cust, int(phaseDown), d+1, cur.node, cur.phase)
			}
		case phasePeer, phaseDown:
			for _, cust := range g.customers[cur.node] {
				push(cust, int(phaseDown), d+1, cur.node, cur.phase)
			}
		}
	}
	return p
}

func (p *refPaths) to(dst string) ([]string, bool) {
	st := p.states[dst]
	if st == nil {
		return nil, false
	}
	best := -1
	for phase := 2; phase >= 0; phase-- {
		if !st[phase].seen {
			continue
		}
		if best == -1 || st[phase].dist < st[best].dist {
			best = phase
		}
	}
	if best == -1 {
		return nil, false
	}
	var rev []string
	node, phase := dst, best
	for {
		rev = append(rev, node)
		if node == p.src && phase == int(phaseUp) {
			break
		}
		s := p.states[node]
		if s == nil || !s[phase].seen {
			return nil, false
		}
		node, phase = s[phase].parent, s[phase].pphase
		if len(rev) > 64 {
			return nil, false
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

func (p *refPaths) dist(dst string) int {
	st := p.states[dst]
	if st == nil {
		return -1
	}
	best := -1
	for phase := 0; phase < 3; phase++ {
		if st[phase].seen && (best == -1 || st[phase].dist < best) {
			best = st[phase].dist
		}
	}
	return best
}

// TestPathsMatchReference compares every path tree a seed-42 lab uses —
// the 24 campaign vantages — plus a spread of other sources (tier-1s,
// regional transits, stubs, an unknown ID) with the reference BFS: for
// every destination, the same path and the same distance.
func TestPathsMatchReference(t *testing.T) {
	w := world.MustBuild(world.Config{Seed: 42})
	g := BuildGraph(w, 42)
	ref := newRefGraph(g)
	nodes := g.Nodes()
	srcs := append([]string(nil), NewCampaign(w, g, 42, 24).Vantages...)
	for i := 0; i < len(nodes); i += 211 {
		srcs = append(srcs, nodes[i])
	}
	srcs = append(srcs, "T1-00", "T1-11", "no-such-node")
	dsts := append(nodes, "no-such-node")
	for _, src := range srcs {
		got, want := g.PathsFrom(src), ref.pathsFrom(src)
		reached := 0
		for _, dst := range dsts {
			gp, gok := got.To(dst)
			wp, wok := want.to(dst)
			if gok != wok || !reflect.DeepEqual(gp, wp) {
				t.Fatalf("PathsFrom(%s).To(%s) = %v, %v; reference %v, %v", src, dst, gp, gok, wp, wok)
			}
			if gd, wd := got.Dist(dst), want.dist(dst); gd != wd {
				t.Fatalf("PathsFrom(%s).Dist(%s) = %d, reference %d", src, dst, gd, wd)
			}
			if gok {
				reached++
			}
		}
		if src != "no-such-node" && reached < len(nodes)/2 {
			t.Fatalf("PathsFrom(%s) reaches only %d of %d nodes", src, reached, len(nodes))
		}
	}
}

// TestGraphAdjacencySorted pins the invariant the BFS tie-breaking rests
// on: every adjacency list is sorted by node name without repeats, and
// the customer/provider and peer relations are mutual.
func TestGraphAdjacencySorted(t *testing.T) {
	g := testGraph(t)
	has := func(s []int32, v int32) bool {
		for _, x := range s {
			if x == v {
				return true
			}
		}
		return false
	}
	for n := range g.names {
		for _, adj := range [][]int32{g.providers[n], g.customers[n], g.peers[n]} {
			for i := 1; i < len(adj); i++ {
				if g.names[adj[i-1]] >= g.names[adj[i]] {
					t.Fatalf("%s: adjacency not strictly sorted by name at %d", g.names[n], i)
				}
			}
		}
		for _, p := range g.providers[n] {
			if !has(g.customers[p], int32(n)) {
				t.Fatalf("%s buys from %s, which does not list it as a customer", g.names[n], g.names[p])
			}
		}
		for _, p := range g.peers[n] {
			if !has(g.peers[p], int32(n)) {
				t.Fatalf("%s peers with %s, but not the other way", g.names[n], g.names[p])
			}
		}
	}
}

// TestPathsFromAllocs bounds PathsFrom to a constant number of
// allocations (the tree, its state array and the BFS queue), however
// many nodes it reaches.
func TestPathsFromAllocs(t *testing.T) {
	const budget = 4
	g := testGraph(t)
	src := g.Tier1()[0]
	allocs := testing.AllocsPerRun(5, func() { g.PathsFrom(src) })
	if allocs > budget {
		t.Fatalf("PathsFrom allocates %v times per call, budget %d", allocs, budget)
	}
}
