package netdb_test

import (
	"cmp"
	"net/netip"
	"slices"
	"testing"

	"repro/internal/netdb"
	"repro/internal/rng"
	"repro/internal/world"
)

// linearTable is the routing oracle: every installed route in a plain
// slice, and a lookup scans them all for the longest match.
type linearTable[V any] struct {
	routes []linearRoute[V]
	index  map[netip.Prefix]int
}

type linearRoute[V any] struct {
	p          netip.Prefix
	base, mask uint32
	v          V
}

func newLinear[V any]() *linearTable[V] {
	return &linearTable[V]{index: map[netip.Prefix]int{}}
}

// insert installs v at p, replacing the value of an equal prefix.
func (l *linearTable[V]) insert(p netip.Prefix, v V) {
	p = p.Masked()
	if i, ok := l.index[p]; ok {
		l.routes[i].v = v
		return
	}
	l.index[p] = len(l.routes)
	l.routes = append(l.routes, linearRoute[V]{p, netdb.AddrToUint32(p.Addr()), ^uint32(0) << (32 - p.Bits()), v})
}

func (l *linearTable[V]) lookup(a uint32) (v V, p netip.Prefix, ok bool) {
	best := -1
	for i, r := range l.routes {
		if a&r.mask == r.base && (best < 0 || r.p.Bits() > l.routes[best].p.Bits()) {
			best = i
		}
	}
	if best < 0 {
		return v, p, false
	}
	return l.routes[best].v, l.routes[best].p, true
}

// preorder lists the installed prefixes in the trie's pre-order (a node,
// then its 0 subtree, then its 1 subtree), which is ascending network
// address with a covering prefix before the prefixes it contains.
func (l *linearTable[V]) preorder() []netip.Prefix {
	rs := slices.Clone(l.routes)
	slices.SortFunc(rs, func(a, b linearRoute[V]) int {
		return cmp.Or(cmp.Compare(a.base, b.base), cmp.Compare(a.p.Bits(), b.p.Bits()))
	})
	out := make([]netip.Prefix, len(rs))
	for i, r := range rs {
		out[i] = r.p
	}
	return out
}

// probes returns addrs plus, for every installed prefix, its first and
// last address and the addresses just outside it.
func (l *linearTable[V]) probes(addrs []uint32) []uint32 {
	out := slices.Clone(addrs)
	for _, r := range l.routes {
		last := r.base | ^r.mask
		out = append(out, r.base, last, r.base-1, last+1)
	}
	return out
}

// checkTable requires tbl to answer like the oracle at every probe, to
// count the same routes, and to walk them in the reference pre-order.
func checkTable[V comparable](t *testing.T, tbl *netdb.Table[V], ref *linearTable[V], addrs []uint32) {
	t.Helper()
	for _, a := range ref.probes(addrs) {
		addr := netdb.AddrFromUint32(a)
		v, p, ok := tbl.Lookup(addr)
		wv, wp, wok := ref.lookup(a)
		if v != wv || p != wp || ok != wok {
			t.Fatalf("Lookup(%v) = (%v, %v, %v), linear scan (%v, %v, %v)", addr, v, p, ok, wv, wp, wok)
		}
	}
	if tbl.Len() != len(ref.routes) {
		t.Fatalf("Len = %d, %d distinct prefixes installed", tbl.Len(), len(ref.routes))
	}
	var walked []netip.Prefix
	tbl.Walk(func(p netip.Prefix, v V) bool {
		if i, ok := ref.index[p]; !ok || ref.routes[i].v != v {
			t.Fatalf("Walk yields %v = %v, which is not installed", p, v)
		}
		walked = append(walked, p)
		return true
	})
	if want := ref.preorder(); !slices.Equal(walked, want) {
		t.Fatalf("Walk order = %v, reference pre-order %v", walked, want)
	}
}

// TestTableMatchesLinearScan requires the trie to answer like the
// linear-scan oracle, on random tables and on a real world's database.
func TestTableMatchesLinearScan(t *testing.T) {
	t.Run("random", testRandomTables)
	t.Run("world-seed42", testWorldRoutes)
}

// testRandomTables installs random mixed-length prefixes (nested chains,
// replaced duplicates, host and default routes) and requires every
// lookup, Len and the walk to agree with the oracle.
func testRandomTables(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		s := rng.New(seed)
		tbl := netdb.NewTable[int]()
		ref := newLinear[int]()
		var installed []netip.Prefix
		install := func(p netip.Prefix, v int) {
			if err := tbl.Insert(p, v); err != nil {
				t.Fatal(err)
			}
			ref.insert(p, v)
			installed = append(installed, p.Masked())
		}
		n := 1 + s.Intn(150)
		for i := 0; i < n; i++ {
			switch {
			case i == 0 && seed%2 == 0:
				install(netip.MustParsePrefix("0.0.0.0/0"), i)
			case len(installed) > 0 && s.Intn(4) == 0:
				// Nest under an installed prefix: keep its bits, draw the rest.
				p := installed[s.Intn(len(installed))]
				bits := p.Bits() + s.Intn(33-p.Bits())
				a := netdb.AddrToUint32(p.Addr()) | uint32(s.Uint64())&^(^uint32(0)<<(32-p.Bits()))
				install(netdb.PrefixFromUint32(a, bits), i)
			case len(installed) > 0 && s.Intn(8) == 0:
				install(installed[s.Intn(len(installed))], i) // replace
			case s.Intn(8) == 0:
				install(netdb.PrefixFromUint32(uint32(s.Uint64()), 32), i) // host route
			default:
				// Unmasked host bits must not matter.
				install(netip.PrefixFrom(netdb.AddrFromUint32(uint32(s.Uint64())), s.Intn(33)), i)
			}
		}
		addrs := make([]uint32, 200)
		for i := range addrs {
			addrs[i] = uint32(s.Uint64())
		}
		checkTable(t, tbl, ref, addrs)
	}
}

// testWorldRoutes checks the routing database the seed-42 world builds:
// the first and last address of every announced prefix resolve as a
// linear scan over the announcements does.
func testWorldRoutes(t *testing.T) {
	db := world.MustBuild(world.Config{Seed: 42}).RoutingDB()
	ref := newLinear[netdb.Route]()
	db.Walk(func(p netip.Prefix, r netdb.Route) bool {
		if _, dup := ref.index[p]; dup {
			t.Fatalf("Walk yields %v twice", p)
		}
		ref.insert(p, r)
		return true
	})
	if db.Len() != len(ref.routes) || db.Len() == 0 {
		t.Fatalf("Len = %d, Walk yields %d routes", db.Len(), len(ref.routes))
	}
	for _, r := range ref.routes {
		for _, a := range []uint32{r.base, r.base | ^r.mask} {
			got, ok := db.Lookup(netdb.AddrFromUint32(a))
			want, _, wok := ref.lookup(a)
			if got != want || ok != wok {
				t.Fatalf("Lookup(%v) = (%+v, %v), linear scan (%+v, %v)", netdb.AddrFromUint32(a), got, ok, want, wok)
			}
		}
	}
}

// FuzzTableLookup installs arbitrary prefixes (five bytes each: four of
// address, one of length mod 33) and probes arbitrary addresses (four
// bytes each) plus every prefix's edges, against the linear-scan oracle.
func FuzzTableLookup(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 10, 1, 2, 3, 32, 10, 0, 0, 0, 8}, []byte{10, 1, 2, 3, 10, 9, 9, 9})
	f.Add([]byte{192, 0, 2, 0, 24, 192, 0, 2, 0, 24, 192, 0, 2, 128, 25}, []byte{192, 0, 2, 200})
	f.Add([]byte{255, 255, 255, 255, 32, 128, 0, 0, 0, 1}, []byte{255, 255, 255, 254})
	f.Fuzz(func(t *testing.T, prefixes, addrs []byte) {
		tbl := netdb.NewTable[int]()
		ref := newLinear[int]()
		for i := 0; i+5 <= len(prefixes); i += 5 {
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte(prefixes[i:i+4])), int(prefixes[i+4]%33))
			if err := tbl.Insert(p, i); err != nil {
				t.Fatal(err)
			}
			ref.insert(p, i)
		}
		var probe []uint32
		for i := 0; i+4 <= len(addrs); i += 4 {
			probe = append(probe, netdb.AddrToUint32(netip.AddrFrom4([4]byte(addrs[i:i+4]))))
		}
		checkTable(t, tbl, ref, probe)
	})
}
