package dnscount

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dates"
	"repro/internal/orgs"
	"repro/internal/world"
)

var testW = world.MustBuild(world.Config{Seed: 11})

func TestDeterministic(t *testing.T) {
	d := dates.New(2023, 7, 20)
	a := New(testW, 2).Generate(d)
	b := New(testW, 2).Generate(d)
	if len(a.Queries) != len(b.Queries) {
		t.Fatal("query sets differ")
	}
	for k, v := range a.Queries {
		if b.Queries[k] != v {
			t.Fatalf("nondeterministic count for %v", k)
		}
	}
}

func TestPresenceCoverageBeatsAPNIC(t *testing.T) {
	// The paper's point about the DNS method: it identifies presence for
	// nearly every network — including the tail APNIC's sample floor
	// drops.
	d := dates.New(2023, 7, 20)
	ds := New(testW, 2).Generate(d)
	pairs := testW.CountryOrgPairs(d)
	detected := 0
	for _, p := range pairs {
		if _, ok := ds.Queries[p]; ok {
			detected++
		}
	}
	if frac := float64(detected) / float64(len(pairs)); frac < 0.75 {
		t.Fatalf("DNS detects only %.1f%% of pairs", 100*frac)
	}
}

func TestCacheCompression(t *testing.T) {
	// Query counts must be strongly sublinear in users: compare the
	// query-per-user ratio of a huge org vs a tiny one.
	d := dates.New(2023, 7, 20)
	ds := New(testW, 2).Generate(d)
	type obs struct{ users, queries float64 }
	var biggest, smallest obs
	smallest.users = math.Inf(1)
	for k, q := range ds.Queries {
		o, _ := testW.Registry.ByID(k.Org)
		if o == nil || !o.Type.HostsUsers() {
			continue
		}
		u := testW.TrueUsers(k.Country, k.Org, d)
		if u > biggest.users {
			biggest = obs{u, q}
		}
		if u > 1000 && u < smallest.users {
			smallest = obs{u, q}
		}
	}
	if biggest.users < 1e7 || math.IsInf(smallest.users, 1) {
		t.Fatal("observation extraction failed")
	}
	ratioBig := biggest.queries / biggest.users
	ratioSmall := smallest.queries / smallest.users
	if ratioBig >= ratioSmall {
		t.Errorf("queries/user big=%v small=%v; caching should compress large orgs", ratioBig, ratioSmall)
	}
}

func TestMagnitudeSignalWeakerThanPresence(t *testing.T) {
	// DNS shares must correlate with user shares more weakly than they
	// would if counts were linear — the "identifies presence, not
	// magnitude" property. Concretely: within a big country, the
	// DNS-implied share of the top org understates its true share.
	d := dates.New(2023, 7, 20)
	ds := New(testW, 2).Generate(d)
	for _, cc := range []string{"DE", "FR", "US"} {
		shares := ds.CountryShares(cc)
		trueTop, dnsTop := 0.0, 0.0
		var topID string
		total := 0.0
		for _, e := range testW.Market(cc).ActiveEntries(d) {
			if !e.Org.Type.HostsUsers() {
				continue
			}
			u := testW.TrueUsers(cc, e.Org.ID, d)
			total += u
			if u > trueTop {
				trueTop = u
				topID = e.Org.ID
			}
		}
		dnsTop = shares[topID]
		if total == 0 || topID == "" {
			t.Fatalf("%s: no eyeballs", cc)
		}
		if dnsTop >= trueTop/total {
			t.Errorf("%s: DNS top share %v not compressed below true %v", cc, dnsTop, trueTop/total)
		}
	}
}

func TestInfrastructureNoise(t *testing.T) {
	// Cloud orgs emit outsized automated query loads.
	d := dates.New(2023, 7, 20)
	ds := New(testW, 2).Generate(d)
	perUser := func(typ orgs.Type) float64 {
		var q, u float64
		for k, v := range ds.Queries {
			o, _ := testW.Registry.ByID(k.Org)
			if o == nil || o.Type != typ {
				continue
			}
			q += v
			u += testW.TrueUsers(k.Country, k.Org, d)
		}
		if u == 0 {
			return 0
		}
		return q / u
	}
	if perUser(orgs.CloudProvider) < 10*perUser(orgs.FixedAccess) {
		t.Errorf("cloud queries/user %v not ≫ access %v", perUser(orgs.CloudProvider), perUser(orgs.FixedAccess))
	}
}

func TestSharesNormalized(t *testing.T) {
	ds := New(testW, 2).Generate(dates.New(2023, 7, 20))
	shares := ds.CountryShares("FR")
	sum := 0.0
	vals := make([]float64, 0, len(shares))
	for _, v := range shares {
		sum += v
		vals = append(vals, v)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
	if len(vals) == 0 || slices.Max(vals) <= 0 {
		t.Fatal("no positive shares")
	}
}
