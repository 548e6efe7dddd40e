package world

import (
	"math"
	"net/netip"
	"testing"

	"repro/internal/dates"
	"repro/internal/geo"
	"repro/internal/netdb"
	"repro/internal/orgs"
)

func testWorld(t *testing.T) *World {
	t.Helper()
	w, err := Build(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildDeterministic(t *testing.T) {
	w1 := MustBuild(Config{Seed: 7})
	w2 := MustBuild(Config{Seed: 7})
	if w1.Registry.Len() != w2.Registry.Len() {
		t.Fatal("same-seed worlds differ in org count")
	}
	d := dates.New(2024, 4, 21)
	for _, code := range []string{"FR", "IN", "RU", "BR"} {
		for _, e := range w1.Market(code).Entries {
			u1 := w1.TrueUsers(code, e.Org.ID, d)
			u2 := w2.TrueUsers(code, e.Org.ID, d)
			if u1 != u2 {
				t.Fatalf("user counts differ for %s/%s: %v vs %v", code, e.Org.ID, u1, u2)
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	w1 := MustBuild(Config{Seed: 1})
	w2 := MustBuild(Config{Seed: 2})
	d := dates.New(2024, 1, 1)
	same := 0
	total := 0
	for _, e := range w1.Market("FR").Entries {
		if e2 := w2.Entry("FR", e.Org.ID); e2 != nil {
			total++
			if w1.TrueUsers("FR", e.Org.ID, d) == w2.TrueUsers("FR", e.Org.ID, d) {
				same++
			}
		}
	}
	if total > 0 && same == total {
		t.Fatal("different seeds produced identical markets")
	}
}

func TestEveryCountryHasMarket(t *testing.T) {
	w := testWorld(t)
	if len(w.Countries()) != len(geo.All()) {
		t.Fatalf("markets for %d countries, want %d", len(w.Countries()), len(geo.All()))
	}
	for _, code := range w.Countries() {
		m := w.Market(code)
		if m == nil || len(m.Entries) < 5 {
			t.Fatalf("country %s has a degenerate market", code)
		}
	}
}

func TestSharesSumToOne(t *testing.T) {
	w := testWorld(t)
	for _, code := range []string{"FR", "IN", "US", "VU", "RU", "BR", "NG"} {
		for _, d := range []dates.Date{dates.New(2014, 6, 1), dates.New(2019, 1, 1), dates.New(2024, 4, 21)} {
			sum := 0.0
			for _, e := range w.Market(code).ActiveEntries(d) {
				sum += w.Share(code, e.Org.ID, d)
			}
			// Jan-1 anchors sum to exactly 1; mid-year interpolation can
			// deviate slightly when org sets change between years.
			if math.Abs(sum-1) > 0.05 {
				t.Errorf("%s shares at %v sum to %v", code, d, sum)
			}
		}
	}
}

func TestMarketIsConcentrated(t *testing.T) {
	w := testWorld(t)
	d := dates.New(2024, 1, 1)
	m := w.Market("FR")
	var top, total float64
	for _, e := range m.ActiveEntries(d) {
		s := w.Share("FR", e.Org.ID, d)
		total += s
		if s > top {
			top = s
		}
	}
	if top < 0.15 {
		t.Errorf("largest French org has share %v, want a clear market leader", top)
	}
	if total < 0.95 {
		t.Errorf("active shares total %v", total)
	}
}

func TestTrueUsersScale(t *testing.T) {
	w := testWorld(t)
	d := dates.New(2024, 4, 21)
	// India's biggest org should host on the order of 10^8 users.
	var top float64
	for _, e := range w.Market("IN").ActiveEntries(d) {
		if u := w.TrueUsers("IN", e.Org.ID, d); u > top {
			top = u
		}
	}
	if top < 5e7 {
		t.Errorf("largest Indian org has %v users, want > 5e7", top)
	}
	// Vanuatu's biggest org should be tiny in comparison.
	var topVU float64
	for _, e := range w.Market("VU").ActiveEntries(d) {
		if u := w.TrueUsers("VU", e.Org.ID, d); u > topVU {
			topVU = u
		}
	}
	if topVU > 1e6 {
		t.Errorf("largest Vanuatu org has %v users", topVU)
	}
}

func TestUsersGrowOverTime(t *testing.T) {
	w := testWorld(t)
	early := w.TotalUsers("IN", dates.New(2014, 1, 1))
	late := w.TotalUsers("IN", dates.New(2024, 1, 1))
	if late < 2*early {
		t.Errorf("India users %v → %v; expected strong growth", early, late)
	}
}

func TestConsolidationDirection(t *testing.T) {
	w := testWorld(t)
	// Southern Asia concentrates: top-org share rises 2019 → 2024.
	inTop := func(d dates.Date) float64 {
		var top float64
		for _, e := range w.Market("IN").ActiveEntries(d) {
			if s := w.Share("IN", e.Org.ID, d); s > top {
				top = s
			}
		}
		return top
	}
	if inTop(dates.New(2024, 1, 1)) <= inTop(dates.New(2019, 1, 1)) {
		t.Error("Indian market should concentrate after 2019")
	}

	// Latin America diversifies: orgs needed to reach 95% grows.
	cover := func(code string, d dates.Date) int {
		shares := []float64{}
		for _, e := range w.Market(code).ActiveEntries(d) {
			shares = append(shares, w.Share(code, e.Org.ID, d))
		}
		// count largest shares to 95%
		n := 0
		covered := 0.0
		for covered < 0.95 {
			best, bestIdx := -1.0, -1
			for i, s := range shares {
				if s > best {
					best, bestIdx = s, i
				}
			}
			if bestIdx < 0 {
				break
			}
			covered += best
			shares[bestIdx] = -2
			n++
		}
		return n
	}
	brBefore := cover("BR", dates.New(2019, 1, 1))
	brAfter := cover("BR", dates.New(2024, 1, 1))
	if brAfter <= brBefore {
		t.Errorf("Brazilian market should diversify: cover count %d → %d", brBefore, brAfter)
	}
}

func TestMergerEvents(t *testing.T) {
	w := testWorld(t)
	// Switzerland has a guaranteed 2020 merger.
	var victim *Entry
	for _, e := range w.Market("CH").Entries {
		if e.ExitYear == 2020 && e.AbsorbedBy != "" {
			victim = e
		}
	}
	if victim == nil {
		t.Fatal("no Swiss merger found")
	}
	// After the merger the victim has no users and the absorber gained.
	before := dates.New(2019, 1, 1)
	after := dates.New(2021, 1, 1)
	if w.TrueUsers("CH", victim.Org.ID, after) != 0 {
		t.Error("absorbed org still has users after exit")
	}
	absBefore := w.Share("CH", victim.AbsorbedBy, before)
	absAfter := w.Share("CH", victim.AbsorbedBy, after)
	if absAfter <= absBefore {
		t.Errorf("absorber share %v → %v; should grow", absBefore, absAfter)
	}
}

func TestVPNViews(t *testing.T) {
	w := testWorld(t)
	if w.VPNOrgID == "" {
		t.Fatal("no VPN org built")
	}
	d := dates.New(2024, 4, 1)
	apnicView := w.APNICUsers("NO", w.VPNOrgID, d)
	cdnView := w.CDNUsers("NO", w.VPNOrgID, d)
	if apnicView <= cdnView {
		t.Fatalf("APNIC view of VPN in NO (%v) must exceed CDN view (%v)", apnicView, cdnView)
	}
	// The funnel is large relative to Norway itself.
	if apnicView < 0.3*w.TotalUsers("NO", d) {
		t.Errorf("VPN apparent users %v too small relative to NO total %v", apnicView, w.TotalUsers("NO", d))
	}
	// Origin countries see the VPN org in the CDN view only.
	foundOrigin := false
	for origin, share := range w.VPNOrigins() {
		if share <= 0 {
			continue
		}
		foundOrigin = true
		if w.CDNUsers(origin, w.VPNOrgID, d) <= 0 {
			t.Errorf("CDN should see VPN users in origin %s", origin)
		}
		if w.APNICUsers(origin, w.VPNOrgID, d) != w.TrueUsers(origin, w.VPNOrgID, d) {
			t.Errorf("APNIC should not see funneled users in origin %s", origin)
		}
	}
	if !foundOrigin {
		t.Fatal("VPN has no origins")
	}
	// Funnel grows over time.
	if w.VPNFunnelTotal(dates.New(2014, 1, 1)) >= w.VPNFunnelTotal(dates.New(2024, 1, 1)) {
		t.Error("VPN funnel should grow over the decade")
	}
}

func TestRoutingConsistency(t *testing.T) {
	w := testWorld(t)
	if w.DB.Len() < 1000 {
		t.Fatalf("only %d routes announced", w.DB.Len())
	}
	vpnOrg, _ := w.Registry.ByID(w.VPNOrgID)
	divergent := 0
	w.DB.Walk(func(p netip.Prefix, r netdb.Route) bool {
		o, ok := w.Registry.ByASN(r.ASN)
		if !ok {
			t.Errorf("route %v has unregistered AS%d", p, r.ASN)
			return false
		}
		if r.RegisteredCountry != o.Home {
			t.Errorf("route %v registered in %s but org home is %s", p, r.RegisteredCountry, o.Home)
			return false
		}
		if r.TrueCountry != r.RegisteredCountry {
			divergent++
			if o.ID != vpnOrg.ID {
				t.Errorf("non-VPN route %v has divergent geolocation", p)
				return false
			}
		}
		return true
	})
	if divergent == 0 {
		t.Error("no VPN egress blocks with divergent geolocation views")
	}
}

func TestRegistryASNsResolve(t *testing.T) {
	w := testWorld(t)
	for _, o := range w.Registry.All() {
		for _, asn := range o.ASNs {
			got, ok := w.Registry.ByASN(asn)
			if !ok || got.ID != o.ID {
				t.Fatalf("AS%d does not resolve to %s", asn, o.ID)
			}
		}
	}
	if w.Registry.Len() < 1000 {
		t.Errorf("only %d orgs; want a rich world", w.Registry.Len())
	}
}

func TestCountryOrgPairs(t *testing.T) {
	w := testWorld(t)
	d := dates.New(2024, 4, 1)
	pairs := w.CountryOrgPairs(d)
	if len(pairs) < 2000 {
		t.Errorf("only %d (country, org) pairs", len(pairs))
	}
	seen := map[orgs.CountryOrg]bool{}
	vpnCountries := 0
	for _, p := range pairs {
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
		if p.Org == w.VPNOrgID {
			vpnCountries++
		}
	}
	if vpnCountries < 5 {
		t.Errorf("VPN org appears in %d countries, want hub + origins", vpnCountries)
	}
}

func TestEntryParameterSanity(t *testing.T) {
	w := testWorld(t)
	for _, code := range w.Countries() {
		for _, e := range w.Market(code).Entries {
			if e.BaseWeight <= 0 {
				t.Fatalf("%s: non-positive weight", e.Org.ID)
			}
			if e.AdFactor <= 0 || e.TrafficPerUser <= 0 || e.ReqPerUser <= 0 {
				t.Fatalf("%s: non-positive intensity parameters", e.Org.ID)
			}
			if e.MobileShare < 0 || e.MobileShare > 1 {
				t.Fatalf("%s: mobile share out of range", e.Org.ID)
			}
			if e.CDNAffinity < 0 || e.CDNAffinity > 1 {
				t.Fatalf("%s: CDN affinity out of range", e.Org.ID)
			}
			sum := 0.0
			for _, v := range e.ASNWeights {
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 || len(e.ASNWeights) != len(e.Org.ASNs) {
				t.Fatalf("%s: ASN weights malformed", e.Org.ID)
			}
		}
	}
}

func TestCloudOrgsAreTrafficHeavyAdLight(t *testing.T) {
	w := testWorld(t)
	for _, code := range []string{"IN", "US", "DE"} {
		for _, e := range w.Market(code).Entries {
			if e.Org.Type == orgs.CloudProvider {
				if e.AdFactor > 0.1 {
					t.Errorf("%s cloud org ad factor %v too high", code, e.AdFactor)
				}
				if e.TrafficPerUser < 5 {
					t.Errorf("%s cloud org traffic/user %v too low", code, e.TrafficPerUser)
				}
			}
		}
	}
}

func TestOrgCount(t *testing.T) {
	w := testWorld(t)
	n2019 := w.OrgCount("BR", 2019)
	n2024 := w.OrgCount("BR", 2024)
	if n2024 <= n2019 {
		t.Errorf("Brazil org count %d → %d; entrants should add orgs", n2019, n2024)
	}
	if w.OrgCount("XX", 2024) != 0 {
		t.Error("unknown country should have zero orgs")
	}
}

func TestGammaAnchors(t *testing.T) {
	if g := consolidationGamma(geo.SouthernAsia, 2024); g <= 1.5 {
		t.Errorf("Southern Asia 2024 gamma = %v", g)
	}
	if g := consolidationGamma(geo.SouthAmer, 2024); g >= 0.9 {
		t.Errorf("South America 2024 gamma = %v", g)
	}
	if g := consolidationGamma(geo.WesternEurope, 2019); math.Abs(g-1) > 1e-9 {
		t.Errorf("2019 baseline gamma = %v, want 1", g)
	}
	// Monotone between anchors.
	prev := consolidationGamma(geo.SouthernAsia, 2019)
	for y := 2020; y <= 2024; y++ {
		g := consolidationGamma(geo.SouthernAsia, y)
		if g < prev {
			t.Errorf("gamma not monotone at %d", y)
		}
		prev = g
	}
}

func TestCloudProxyEffectInLowReachCountries(t *testing.T) {
	// §4.4's Russia anomaly mechanism: in low-ad-reach countries, cloud
	// orgs draw outsized ad exposure through proxy/relay traffic.
	w := testWorld(t)
	adFactor := func(cc string) (cloudMax float64) {
		for _, e := range w.Market(cc).Entries {
			if e.Org.Type == orgs.CloudProvider && e.AdFactor > cloudMax {
				cloudMax = e.AdFactor
			}
		}
		return cloudMax
	}
	if ru := adFactor("RU"); ru < 10 {
		t.Errorf("Russian cloud ad factor %v; proxy effect missing", ru)
	}
	if de := adFactor("DE"); de > 1 {
		t.Errorf("German cloud ad factor %v; proxy effect should not apply", de)
	}
}

func TestEyeballTypeMix(t *testing.T) {
	// The top of markets must mix converged and pure-fixed incumbents
	// (the Figure 2 mobile-mismatch mechanism needs both).
	w := testWorld(t)
	fixedTop, convergedTop := 0, 0
	for _, cc := range w.Countries() {
		entries := w.Market(cc).Entries
		if len(entries) == 0 {
			continue
		}
		switch entries[0].Org.Type {
		case orgs.FixedAccess:
			fixedTop++
		case orgs.ConvergedAccess:
			convergedTop++
		}
	}
	if fixedTop < 10 || convergedTop < 10 {
		t.Errorf("market leaders: %d fixed, %d converged; need a mix", fixedTop, convergedTop)
	}
}

func TestShutdownFactorProperties(t *testing.T) {
	w := testWorld(t)
	// Non-shutdown countries always return 1.
	for _, d := range dates.Range(dates.New(2024, 1, 1), dates.New(2024, 3, 1), 7) {
		if w.ShutdownFactor("DE", d) != 1 {
			t.Fatal("Germany should never shut down")
		}
	}
	// Myanmar hits shutdown days at roughly its configured rate.
	days := dates.Range(dates.New(2023, 1, 1), dates.New(2024, 12, 31), 1)
	shut := 0
	for _, d := range days {
		f := w.ShutdownFactor("MM", d)
		if f != 1 && f != 0.1 {
			t.Fatalf("unexpected factor %v", f)
		}
		if f < 1 {
			shut++
		}
	}
	rate := float64(shut) / float64(len(days))
	if rate < 0.05 || rate > 0.16 {
		t.Errorf("MM shutdown rate %v, configured 0.10", rate)
	}
	// The window factor smooths: it must sit strictly between the worst
	// day and 1 on a window containing both kinds of days.
	wf := w.ShutdownWindowFactor("MM", dates.New(2024, 6, 30), 60)
	if wf <= 0.1 || wf >= 1 {
		t.Errorf("window factor %v not smoothed", wf)
	}
}

// TestRoutingDBResolvesEveryPrefix: over a real world's announcements,
// the first and last address of every announced prefix resolve through
// RoutingDB().Lookup to that prefix's own route — ASN and both
// geolocation views — and the VPN egress blocks keep their two views
// apart.
func TestRoutingDBResolvesEveryPrefix(t *testing.T) {
	w := testWorld(t)
	db := w.RoutingDB()
	if db != w.DB {
		t.Fatal("RoutingDB is not the world's trie")
	}
	announced, divergent := 0, 0
	db.Walk(func(p netip.Prefix, r netdb.Route) bool {
		announced++
		last := netdb.AddrFromUint32(netdb.AddrToUint32(p.Addr()) | (1<<(32-p.Bits()) - 1))
		for _, addr := range []netip.Addr{p.Addr(), last} {
			if got, ok := db.Lookup(addr); !ok || got != r {
				t.Fatalf("Lookup(%v) in %v = (%+v, %v), want (%+v, true)", addr, p, got, ok, r)
			}
		}
		if r.RegisteredCountry != r.TrueCountry {
			divergent++
		}
		return true
	})
	if announced != db.Len() || announced == 0 {
		t.Fatalf("walked %d prefixes, Len %d", announced, db.Len())
	}
	if divergent == 0 {
		t.Fatal("world has no VPN egress blocks; test lost its teeth")
	}
}
