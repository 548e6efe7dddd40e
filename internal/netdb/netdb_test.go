package netdb

import (
	"net/netip"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestTrieLongestPrefixMatch(t *testing.T) {
	tbl := NewTable[uint32]()
	if err := tbl.Insert(mustPrefix("10.0.0.0/8"), 100); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(mustPrefix("10.1.0.0/16"), 200); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(mustPrefix("10.1.2.0/24"), 300); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		addr string
		want uint32
		pfx  string
	}{
		{"10.2.3.4", 100, "10.0.0.0/8"},
		{"10.1.9.9", 200, "10.1.0.0/16"},
		{"10.1.2.3", 300, "10.1.2.0/24"},
	}
	for _, c := range cases {
		v, p, ok := tbl.Lookup(netip.MustParseAddr(c.addr))
		if !ok || v != c.want || p != mustPrefix(c.pfx) {
			t.Errorf("Lookup(%s) = (%d, %v, %v), want (%d, %s, true)", c.addr, v, p, ok, c.want, c.pfx)
		}
	}
	if _, _, ok := tbl.Lookup(netip.MustParseAddr("11.0.0.1")); ok {
		t.Error("lookup outside any prefix should miss")
	}
	if tbl.Len() != 3 {
		t.Errorf("Len = %d, want 3", tbl.Len())
	}
}

func TestTrieReplaceInPlace(t *testing.T) {
	tbl := NewTable[string]()
	p := mustPrefix("192.0.1.0/24")
	_ = tbl.Insert(p, "a")
	_ = tbl.Insert(p, "b")
	if tbl.Len() != 1 {
		t.Fatalf("replacing should not grow Len: %d", tbl.Len())
	}
	v, got, ok := tbl.Lookup(netip.MustParseAddr("192.0.1.77"))
	if !ok || v != "b" || got != p {
		t.Fatalf("Lookup after replace = (%q, %v, %v), want (\"b\", %v, true)", v, got, ok, p)
	}
	if _, _, ok := tbl.Lookup(netip.MustParseAddr("192.0.0.1")); ok {
		t.Error("Lookup outside the replaced prefix should miss")
	}
}

func TestTrieRejectsNonIPv4(t *testing.T) {
	tbl := NewTable[int]()
	if err := tbl.Insert(netip.MustParsePrefix("2001:db8::/32"), 1); err == nil {
		t.Error("IPv6 insert should fail")
	}
	if _, _, ok := tbl.Lookup(netip.MustParseAddr("::1")); ok {
		t.Error("IPv6 lookup should miss")
	}
}

func TestTrieDefaultRoute(t *testing.T) {
	tbl := NewTable[int]()
	_ = tbl.Insert(mustPrefix("0.0.0.0/0"), 7)
	v, _, ok := tbl.Lookup(netip.MustParseAddr("203.0.113.7"))
	if !ok || v != 7 {
		t.Fatalf("default route lookup = (%d, %v)", v, ok)
	}
}

func TestTrieHostRoute(t *testing.T) {
	tbl := NewTable[int]()
	_ = tbl.Insert(mustPrefix("198.51.100.1/32"), 1)
	_ = tbl.Insert(mustPrefix("198.51.100.0/24"), 2)
	v, _, _ := tbl.Lookup(netip.MustParseAddr("198.51.100.1"))
	if v != 1 {
		t.Fatalf("host route should win: got %d", v)
	}
	v, _, _ = tbl.Lookup(netip.MustParseAddr("198.51.100.2"))
	if v != 2 {
		t.Fatalf("covering route should match others: got %d", v)
	}
}

func TestWalkOrderAndEarlyStop(t *testing.T) {
	tbl := NewTable[int]()
	_ = tbl.Insert(mustPrefix("9.0.0.0/8"), 1)
	_ = tbl.Insert(mustPrefix("1.0.0.0/8"), 2)
	_ = tbl.Insert(mustPrefix("5.5.0.0/16"), 3)
	var order []string
	tbl.Walk(func(p netip.Prefix, v int) bool {
		order = append(order, p.String())
		return true
	})
	want := []string{"1.0.0.0/8", "5.5.0.0/16", "9.0.0.0/8"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("walk order = %v, want %v", order, want)
	}
	count := 0
	tbl.Walk(func(p netip.Prefix, v int) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early stop visited %d nodes", count)
	}
}

func TestAllocatorNoOverlapNoReserved(t *testing.T) {
	a := NewAllocator()
	var prefixes []netip.Prefix
	s := rng.New(1)
	for i := 0; i < 500; i++ {
		bits := 12 + s.Intn(16)
		p, err := a.Alloc(bits)
		if err != nil {
			t.Fatal(err)
		}
		prefixes = append(prefixes, p)
	}
	for i, p := range prefixes {
		for _, r := range reservedRanges {
			if r.Overlaps(p) {
				t.Fatalf("allocation %v overlaps reserved %v", p, r)
			}
		}
		for j := i + 1; j < len(prefixes); j++ {
			if p.Overlaps(prefixes[j]) {
				t.Fatalf("allocations overlap: %v and %v", p, prefixes[j])
			}
		}
	}
}

func TestAllocatorDeterministic(t *testing.T) {
	a1, a2 := NewAllocator(), NewAllocator()
	for i := 0; i < 50; i++ {
		bits := 14 + i%10
		p1, err1 := a1.Alloc(bits)
		p2, err2 := a2.Alloc(bits)
		if err1 != nil || err2 != nil || p1 != p2 {
			t.Fatalf("allocators diverged at %d: %v vs %v", i, p1, p2)
		}
	}
}

func TestAllocatorRejectsBadBits(t *testing.T) {
	a := NewAllocator()
	if _, err := a.Alloc(7); err == nil {
		t.Error("Alloc(7) should fail")
	}
	if _, err := a.Alloc(31); err == nil {
		t.Error("Alloc(31) should fail")
	}
}

func TestBitsForHosts(t *testing.T) {
	cases := []struct {
		n    int64
		want int
	}{
		{1, 30}, {4, 30}, {5, 29}, {250, 24}, {1 << 20, 12}, {1 << 30, 8},
	}
	for _, c := range cases {
		if got := BitsForHosts(c.n); got != c.want {
			t.Errorf("BitsForHosts(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestDBDualGeolocation(t *testing.T) {
	db := NewDB()
	// Normal block: both views agree.
	_ = db.Announce(mustPrefix("3.0.0.0/16"), Route{ASN: 64500, RegisteredCountry: "FR", TrueCountry: "FR"})
	// VPN egress block: registered in Norway, users actually in Germany.
	_ = db.Announce(mustPrefix("4.0.0.0/20"), Route{ASN: 64501, RegisteredCountry: "NO", TrueCountry: "DE"})

	fr, ok := db.Lookup(netip.MustParseAddr("3.0.1.2"))
	if !ok || fr.RegisteredCountry != "FR" || fr.TrueCountry != "FR" {
		t.Errorf("normal block = (%+v, %v), want both views FR", fr, ok)
	}
	vpn, ok := db.Lookup(netip.MustParseAddr("4.0.0.9"))
	if !ok {
		t.Fatal("VPN block is unrouted")
	}
	if vpn.RegisteredCountry != "NO" {
		t.Errorf("public geolocation of VPN block = %q, want NO", vpn.RegisteredCountry)
	}
	if vpn.TrueCountry != "DE" {
		t.Errorf("true geolocation of VPN block = %q, want DE", vpn.TrueCountry)
	}
	if vpn.ASN != 64501 {
		t.Errorf("ASN = %d", vpn.ASN)
	}
	if r, ok := db.Lookup(netip.MustParseAddr("8.8.8.8")); ok || r != (Route{}) {
		t.Errorf("unrouted lookup = (%+v, %v), want the zero route (ASN 0) and false", r, ok)
	}
	if db.Len() != 2 {
		t.Errorf("Len = %d", db.Len())
	}
}

// TestDBLookupAllocs pins the ingest hot path: a routing lookup
// allocates nothing.
func TestDBLookupAllocs(t *testing.T) {
	db := NewDB()
	for _, e := range []struct {
		cidr string
		r    Route
	}{
		{"0.0.0.0/0", Route{1, "ZZ", "ZZ"}},
		{"10.0.0.0/8", Route{64500, "DE", "DE"}},
		{"10.1.0.0/16", Route{64501, "DE", "FR"}},
		{"10.1.2.0/24", Route{64502, "FR", "FR"}},
	} {
		if err := db.Announce(mustPrefix(e.cidr), e.r); err != nil {
			t.Fatal(err)
		}
	}
	addr := netip.MustParseAddr("10.1.2.3")
	if n := testing.AllocsPerRun(1000, func() {
		if r, ok := db.Lookup(addr); !ok || r.ASN != 64502 {
			t.Fatalf("Lookup(%v) = (%+v, %v)", addr, r, ok)
		}
	}); n != 0 {
		t.Errorf("Lookup allocates %.1f times per call, want 0", n)
	}
}

func TestAddrUint32RoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		return AddrToUint32(AddrFromUint32(v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: for random installed /16s, any address inside resolves to the
// installed value and any address outside misses.
func TestQuickTrieMembership(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		tbl := NewTable[uint32]()
		installed := map[uint32]uint32{} // /16 base -> value
		for i := 0; i < 20; i++ {
			base := uint32(s.Intn(1<<16)) << 16
			v := uint32(s.Intn(1 << 30))
			installed[base] = v
			if err := tbl.Insert(PrefixFromUint32(base, 16), v); err != nil {
				return false
			}
		}
		for i := 0; i < 200; i++ {
			addr := uint32(s.Uint64())
			v, _, ok := tbl.Lookup(AddrFromUint32(addr))
			want, present := installed[addr&0xffff0000]
			if present != ok {
				return false
			}
			if present && v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	tbl := NewTable[uint32]()
	s := rng.New(1)
	for i := 0; i < 100000; i++ {
		base := uint32(s.Uint64()) &^ 0xff
		_ = tbl.Insert(PrefixFromUint32(base, 24), uint32(i))
	}
	addrs := make([]netip.Addr, 1024)
	for i := range addrs {
		addrs[i] = AddrFromUint32(uint32(s.Uint64()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(addrs[i%len(addrs)])
	}
}
