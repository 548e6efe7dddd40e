package astopo

import (
	"testing"

	"repro/internal/dates"
	"repro/internal/world"
)

var testW = world.MustBuild(world.Config{Seed: 11})

func testGraph(t *testing.T) *Graph {
	t.Helper()
	return BuildGraph(testW, 11)
}

func TestGraphStructure(t *testing.T) {
	g := testGraph(t)
	if len(g.Tier1()) != 12 {
		t.Fatalf("%d tier-1s", len(g.Tier1()))
	}
	// Tier-1s form a peer clique with no providers.
	for _, t1 := range g.Tier1() {
		prov, _, peer := g.Degree(t1)
		if prov != 0 {
			t.Errorf("%s has %d providers; tier-1s buy transit from nobody", t1, prov)
		}
		if peer < 11 {
			t.Errorf("%s peers with %d tier-1s", t1, peer)
		}
	}
	// Every org node has at least one provider (no stub is isolated).
	orphans := 0
	for _, n := range g.Nodes() {
		prov, cust, peer := g.Degree(n)
		if prov+cust+peer == 0 {
			orphans++
		}
	}
	if orphans > 0 {
		t.Errorf("%d isolated nodes", orphans)
	}
	if len(g.Nodes()) < 4000 {
		t.Errorf("only %d nodes", len(g.Nodes()))
	}
}

func TestGraphDeterministic(t *testing.T) {
	a := BuildGraph(testW, 5)
	b := BuildGraph(testW, 5)
	na, nb := a.Nodes(), b.Nodes()
	if len(na) != len(nb) {
		t.Fatal("node sets differ")
	}
	for i := range na {
		if na[i] != nb[i] {
			t.Fatal("node order differs")
		}
		pa, ca, ra := a.Degree(na[i])
		pb, cb, rb := b.Degree(nb[i])
		if pa != pb || ca != cb || ra != rb {
			t.Fatalf("degrees differ at %s", na[i])
		}
	}
}

func TestValleyFreeSmall(t *testing.T) {
	// Hand-built topology:
	//        T (tier-1)
	//       /  \
	//      A    B      A,B customers of T; A-B NOT peers
	//     /      \
	//    a        b    stubs
	g := newGraph()
	g.AddEdge("A", "T", Customer)
	g.AddEdge("B", "T", Customer)
	g.AddEdge("a", "A", Customer)
	g.AddEdge("b", "B", Customer)

	p := g.PathsFrom("a")
	path, ok := p.To("b")
	if !ok {
		t.Fatal("no path a→b")
	}
	want := []string{"a", "A", "T", "B", "b"}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if d := p.Dist("b"); d != 4 {
		t.Fatalf("dist = %d", d)
	}
}

func TestValleyFreePeerShortcut(t *testing.T) {
	// a-A-B-b with A,B peers must beat the longer provider route.
	g := newGraph()
	g.AddEdge("A", "T", Customer)
	g.AddEdge("B", "T", Customer)
	g.AddEdge("A", "B", Peer)
	g.AddEdge("a", "A", Customer)
	g.AddEdge("b", "B", Customer)
	path, ok := g.PathsFrom("a").To("b")
	if !ok {
		t.Fatal("no path")
	}
	if len(path) != 4 || path[1] != "A" || path[2] != "B" {
		t.Fatalf("peer shortcut not taken: %v", path)
	}
}

func TestValleyFreeNoDoublePeer(t *testing.T) {
	// a-A ~ B ~ C-c with two peer links in sequence is NOT valley-free;
	// with no other connectivity c must be unreachable from a.
	g := newGraph()
	g.AddEdge("a", "A", Customer)
	g.AddEdge("A", "B", Peer)
	g.AddEdge("B", "C", Peer)
	g.AddEdge("c", "C", Customer)
	if _, ok := g.PathsFrom("a").To("c"); ok {
		t.Fatal("double-peer path should be forbidden")
	}
}

func TestValleyFreeNoValley(t *testing.T) {
	// a and b are customers of M; M must not provide transit *upward*:
	// path a→b via M is a-M-b (down after up) which IS valley-free.
	// But x→y where x,y are providers of M must not route through their
	// shared customer M.
	g := newGraph()
	g.AddEdge("M", "x", Customer) // M pays x
	g.AddEdge("M", "y", Customer) // M pays y
	if _, ok := g.PathsFrom("x").To("y"); ok {
		t.Fatal("customer M must not transit between its providers")
	}
}

func TestPathsUnknownSource(t *testing.T) {
	g := newGraph()
	g.AddEdge("a", "A", Customer)
	if _, ok := g.PathsFrom("zz").To("a"); ok {
		t.Fatal("unknown source should reach nothing")
	}
	p := g.PathsFrom("a")
	if p.Dist("zz") != -1 {
		t.Fatal("unknown destination should be unreachable")
	}
	g.AddEdge("b", "A", Customer)
	if _, ok := p.To("b"); ok {
		t.Fatal("a node added after the path tree was built should be unreachable in it")
	}
}

func TestWorldGraphConnectivity(t *testing.T) {
	g := testGraph(t)
	// A random big eyeball must reach the vast majority of org nodes.
	src := testW.Market("FR").Entries[0].Org.ID
	p := g.PathsFrom(src)
	reached := 0
	for _, n := range g.Nodes() {
		if p.Dist(n) >= 0 {
			reached++
		}
	}
	if frac := float64(reached) / float64(len(g.Nodes())); frac < 0.95 {
		t.Fatalf("reached only %.1f%% of nodes", 100*frac)
	}
}

func TestCampaignPopularity(t *testing.T) {
	g := testGraph(t)
	c := NewCampaign(testW, g, 11, 20)
	if len(c.Vantages) != 20 {
		t.Fatalf("%d vantages", len(c.Vantages))
	}
	d := dates.New(2023, 7, 20)
	pop := c.Run(d, 50)
	if pop.Traces < 900 {
		t.Fatalf("only %d traces completed", pop.Traces)
	}
	if pop.LostHops == 0 {
		t.Error("no measurement error despite nonzero hop loss probability")
	}
	if len(pop.Weight) < 50 {
		t.Fatalf("popularity covers only %d orgs", len(pop.Weight))
	}
	// Transit must dominate: a tier-1 should out-rank any stub.
	var maxT1, maxStub float64
	for id, w := range pop.Weight {
		if len(id) > 3 && id[:3] == "T1-" {
			if w > maxT1 {
				maxT1 = w
			}
		} else if len(id) > 3 && id[:3] != "RT-" {
			if w > maxStub {
				maxStub = w
			}
		}
	}
	if maxT1 == 0 {
		t.Fatal("no tier-1 appears on any path")
	}
}

func TestCampaignDeterministic(t *testing.T) {
	g := testGraph(t)
	d := dates.New(2023, 7, 20)
	p1 := NewCampaign(testW, g, 7, 10).Run(d, 20)
	p2 := NewCampaign(testW, g, 7, 10).Run(d, 20)
	if p1.Traces != p2.Traces || len(p1.Weight) != len(p2.Weight) {
		t.Fatal("campaigns differ")
	}
	for id, w := range p1.Weight {
		if p2.Weight[id] != w {
			t.Fatalf("weight differs for %s", id)
		}
	}
}

func TestCountryShares(t *testing.T) {
	g := testGraph(t)
	c := NewCampaign(testW, g, 11, 20)
	pop := c.Run(dates.New(2023, 7, 20), 100)
	shares := pop.CountryShares(testW.Registry, "DE")
	sum := 0.0
	for id, v := range shares {
		o, _ := testW.Registry.ByID(id)
		if o.Home != "DE" {
			t.Errorf("foreign org %s in German shares", id)
		}
		sum += v
	}
	if len(shares) > 0 && (sum < 0.999 || sum > 1.001) {
		t.Fatalf("shares sum to %v", sum)
	}
}
