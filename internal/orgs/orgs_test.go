package orgs

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestRegistryAddAndLookup(t *testing.T) {
	r := NewRegistry()
	o := &Org{ID: "FR-ACC-01", Name: "Telecom Un", Type: ConvergedAccess, Home: "FR", ASNs: []uint32{64500, 64501}}
	if err := r.Add(o); err != nil {
		t.Fatal(err)
	}
	if got, ok := r.ByID("FR-ACC-01"); !ok || got != o {
		t.Fatal("ByID miss")
	}
	for _, asn := range o.ASNs {
		if got, ok := r.ByASN(asn); !ok || got != o {
			t.Fatalf("ByASN(%d) miss", asn)
		}
	}
	if _, ok := r.ByASN(99); ok {
		t.Fatal("unknown ASN should miss")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	r := NewRegistry()
	_ = r.Add(&Org{ID: "A", ASNs: []uint32{1}})
	if err := r.Add(&Org{ID: "A", ASNs: []uint32{2}}); err == nil {
		t.Error("duplicate ID should fail")
	}
	if err := r.Add(&Org{ID: "B", ASNs: []uint32{1}}); err == nil {
		t.Error("duplicate ASN should fail")
	}
	if err := r.Add(&Org{ID: "C"}); err == nil {
		t.Error("org without ASNs should fail")
	}
	if err := r.Add(nil); err == nil {
		t.Error("nil org should fail")
	}
}

func TestAggregateSumsSiblings(t *testing.T) {
	r := NewRegistry()
	_ = r.Add(&Org{ID: "FR-ACC-01", ASNs: []uint32{100, 101}})
	_ = r.Add(&Org{ID: "FR-ACC-02", ASNs: []uint32{200}})

	byAS := map[CountryAS]float64{
		{Country: "FR", ASN: 100}: 10,
		{Country: "FR", ASN: 101}: 5,
		{Country: "FR", ASN: 200}: 7,
		{Country: "BE", ASN: 100}: 2, // same org seen in another country
		{Country: "FR", ASN: 999}: 1, // unattributed AS
	}
	got := r.Aggregate(byAS)
	want := map[CountryOrg]float64{
		{Country: "FR", Org: "FR-ACC-01"}: 15,
		{Country: "FR", Org: "FR-ACC-02"}: 7,
		{Country: "BE", Org: "FR-ACC-01"}: 2,
		{Country: "FR", Org: "AS999"}:     1,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%v = %v, want %v", k, got[k], v)
		}
	}
}

func TestCountryShares(t *testing.T) {
	m := map[CountryOrg]float64{
		{Country: "FR", Org: "a"}: 1,
		{Country: "FR", Org: "b"}: 2,
		{Country: "DE", Org: "c"}: 3,
	}
	fr := CountryShares(m, "FR")
	if len(fr) != 2 || fr["a"] != 1 || fr["b"] != 2 {
		t.Fatalf("CountryShares FR = %v", fr)
	}
}

func TestTypePredicates(t *testing.T) {
	if !FixedAccess.HostsUsers() || !MobileCarrier.HostsUsers() || !ConvergedAccess.HostsUsers() {
		t.Error("access/mobile types must host users")
	}
	for _, typ := range []Type{Enterprise, CloudProvider, CDNProvider, VPNProvider} {
		if typ.HostsUsers() {
			t.Errorf("%v should not host users", typ)
		}
	}
	if !FixedAccess.IsAccess() || !ConvergedAccess.IsAccess() {
		t.Error("fixed/converged must be access")
	}
	if MobileCarrier.IsAccess() {
		t.Error("pure mobile carriers are not in the broadband survey")
	}
	if FixedAccess.String() == "" || Type(99).String() == "" {
		t.Error("String must never be empty")
	}
}

func TestIDsSortedAndAll(t *testing.T) {
	r := NewRegistry()
	_ = r.Add(&Org{ID: "Z", ASNs: []uint32{1}})
	_ = r.Add(&Org{ID: "A", ASNs: []uint32{2}})
	_ = r.Add(&Org{ID: "M", ASNs: []uint32{3}})
	ids := r.IDs()
	if len(ids) != 3 || ids[0] != "A" || ids[1] != "M" || ids[2] != "Z" {
		t.Fatalf("IDs = %v", ids)
	}
	all := r.All()
	if len(all) != 3 || all[0].ID != "A" {
		t.Fatalf("All = %v", all)
	}
}

// TestRegistryAddShuffledKeepsOrder inserts a few hundred orgs in
// shuffled order: IDs and All must come out sorted, and every rejected
// Add (duplicate ID, already-owned ASN, no ASNs) must leave IDs as it was.
func TestRegistryAddShuffledKeepsOrder(t *testing.T) {
	const n = 400
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-FIX-%03d", []string{"DE", "FR", "BR", "IN"}[i%4], i)
	}
	rand.New(rand.NewPCG(1, 2)).Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })

	r := NewRegistry()
	for i, id := range ids {
		if err := r.Add(&Org{ID: id, ASNs: []uint32{uint32(1000 + i)}}); err != nil {
			t.Fatal(err)
		}
		if i%50 != 0 {
			continue
		}
		before := r.IDs()
		rejects := []*Org{
			{ID: id, ASNs: []uint32{99999}},                 // duplicate ID
			{ID: "ZZ-NEW-00", ASNs: []uint32{uint32(1000)}}, // ASN owned by the first org
			{ID: "ZZ-NEW-01"},                               // no ASNs
		}
		for _, o := range rejects {
			if err := r.Add(o); err == nil {
				t.Fatalf("Add(%q, %v) accepted", o.ID, o.ASNs)
			}
			if got := r.IDs(); !slices.Equal(got, before) {
				t.Fatalf("rejected Add(%q) changed IDs: %d → %d", o.ID, len(before), len(got))
			}
		}
	}
	got := r.IDs()
	want := slices.Clone(ids)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("IDs not sorted: %v…", got[:5])
	}
	for i, o := range r.All() {
		if o.ID != want[i] {
			t.Fatalf("All()[%d] = %s, want %s", i, o.ID, want[i])
		}
	}
}

// TestCountryIndexMatchesCountryShares checks the index against the
// one-country scan: sorted rows, equal maps, caller-owned copies.
func TestCountryIndexMatchesCountryShares(t *testing.T) {
	m := map[CountryOrg]float64{
		{Country: "FR", Org: "b"}: 2,
		{Country: "FR", Org: "a"}: 1,
		{Country: "DE", Org: "c"}: 3,
		{Country: "T1", Org: "t"}: 4,
	}
	var ix CountryIndex[float64]
	for _, cc := range []string{"FR", "DE", "T1", "ZZ"} {
		if got, want := ix.Copy(m, cc), CountryShares(m, cc); !maps.Equal(got, want) {
			t.Fatalf("Copy(%s) = %v, CountryShares %v", cc, got, want)
		}
	}
	if row := ix.Row(m, "FR"); len(row) != 2 || row[0] != (OrgValue[float64]{"a", 1}) || row[1] != (OrgValue[float64]{"b", 2}) {
		t.Fatalf("Row(FR) = %v, want sorted by org", row)
	}
	if row := ix.Row(m, "ZZ"); row != nil {
		t.Fatalf("Row of an absent country = %v", row)
	}
	c := ix.Copy(m, "FR")
	c["a"] = -1
	if got := ix.Copy(m, "FR"); got["a"] != 1 {
		t.Fatal("mutating a Copy reached the index")
	}
	if got := ix.Copy(m, "ZZ"); got == nil || len(got) != 0 {
		t.Fatalf("Copy of an absent country = %v, want empty map", got)
	}
}
