package cdn

import (
	"math"
	"testing"

	"repro/internal/dates"
	"repro/internal/orgs"
	"repro/internal/world"
)

var testW = world.MustBuild(world.Config{Seed: 11})

func testGen() *Generator { return New(testW, 11) }

// vpnOriginCountries lists the countries whose users the VPN org funnels
// through its Norwegian hub on d: the org's (country, org) pairs outside
// Norway.
func vpnOriginCountries(d dates.Date) []string {
	var out []string
	for _, p := range testW.CountryOrgPairs(d) {
		if p.Org == testW.VPNOrgID && p.Country != "NO" {
			out = append(out, p.Country)
		}
	}
	return out
}

func TestGenerateDeterministic(t *testing.T) {
	d := dates.New(2023, 7, 20)
	s1 := testGen().Generate(d)
	s2 := testGen().Generate(d)
	if len(s1.Stats) != len(s2.Stats) {
		t.Fatal("stat counts differ")
	}
	for k, v := range s1.Stats {
		if s2.Stats[k] != v {
			t.Fatalf("stats differ for %v", k)
		}
	}
}

func TestCoverageExceedsAPNIC(t *testing.T) {
	d := dates.New(2023, 7, 20)
	snap := testGen().Generate(d)
	pairs := testW.CountryOrgPairs(d)
	// The CDN must observe the large majority of real pairs.
	if float64(len(snap.Stats)) < 0.7*float64(len(pairs)) {
		t.Fatalf("CDN sees %d of %d pairs", len(snap.Stats), len(pairs))
	}
}

func TestSharesSumToOne(t *testing.T) {
	snap := testGen().Generate(dates.New(2023, 7, 20))
	for _, c := range []string{"FR", "IN", "US", "BR"} {
		ua := snap.UAShares(c)
		vol := snap.VolumeShares(c)
		var sa, sv float64
		for _, v := range ua {
			sa += v
		}
		for _, v := range vol {
			sv += v
		}
		if math.Abs(sa-1) > 1e-9 || math.Abs(sv-1) > 1e-9 {
			t.Errorf("%s shares sum to %v / %v", c, sa, sv)
		}
	}
}

func TestUACountsTrackUsers(t *testing.T) {
	d := dates.New(2023, 7, 20)
	snap := testGen().Generate(d)
	// Within France, bigger orgs must show more UAs (rank preserved for
	// the top of the market).
	entries := testW.Market("FR").ActiveEntries(d)
	type pair struct{ users, uas float64 }
	var ps []pair
	for _, e := range entries {
		if !e.Org.Type.HostsUsers() {
			continue
		}
		st, ok := snap.Stats[orgs.CountryOrg{Country: "FR", Org: e.Org.ID}]
		if !ok {
			continue
		}
		ps = append(ps, pair{testW.TrueUsers("FR", e.Org.ID, d), st.UserAgents})
	}
	if len(ps) < 5 {
		t.Fatalf("only %d French eyeball orgs visible", len(ps))
	}
	// Spot-check monotonicity between clearly separated sizes.
	for i := range ps {
		for j := range ps {
			if ps[i].users > 5*ps[j].users && ps[i].uas < ps[j].uas {
				t.Errorf("org with %vx users has fewer UAs (%v < %v)", ps[i].users/ps[j].users, ps[i].uas, ps[j].uas)
			}
		}
	}
}

func TestVPNGeolocationViews(t *testing.T) {
	d := dates.New(2023, 7, 20)
	snap := testGen().Generate(d)
	vpn := testW.VPNOrgID

	// In the hub (Norway) the CDN sees only the VPN's real local users —
	// a small share. In APNIC's view the same org looms large (tested in
	// the apnic package); here we check the CDN side is small.
	hubShare := snap.UAShares("NO")[vpn]
	if hubShare > 0.1 {
		t.Errorf("CDN NO share of VPN = %v; true geolocation should keep it small", hubShare)
	}
	// And the origin countries see some VPN presence.
	found := 0
	for _, origin := range vpnOriginCountries(d) {
		if _, ok := snap.Stats[orgs.CountryOrg{Country: origin, Org: vpn}]; ok {
			found++
		}
	}
	if found < 3 {
		t.Errorf("VPN visible in only %d origin countries", found)
	}
}

func TestTorPseudoCountry(t *testing.T) {
	snap := testGen().Generate(dates.New(2023, 7, 20))
	st, ok := snap.Stats[orgs.CountryOrg{Country: TorCountry, Org: TorOrg}]
	if !ok {
		t.Fatal("no Tor pseudo-country in CDN data")
	}
	if st.UserAgents <= 0 || st.Bytes <= 0 {
		t.Fatal("Tor stats empty")
	}
	countries := snap.Countries()
	hasT1 := false
	for _, c := range countries {
		if c == TorCountry {
			hasT1 = true
		}
	}
	if !hasT1 {
		t.Fatal("T1 missing from Countries()")
	}
}

func TestNorthKoreaCDNOnly(t *testing.T) {
	// KP has zero ad reach (no APNIC data ever) but the CDN still sees a
	// trickle of traffic.
	snap := testGen().Generate(dates.New(2023, 7, 20))
	kp := 0
	for k := range snap.Stats {
		if k.Country == "KP" {
			kp++
		}
	}
	if kp == 0 {
		t.Error("CDN should observe some KP networks")
	}
}

func TestBotFiltering(t *testing.T) {
	d := dates.New(2023, 7, 20)
	snap := testGen().Generate(d)
	// Cloud orgs must have a much higher filtered-bot fraction than
	// eyeball orgs.
	frac := func(typ orgs.Type) float64 {
		var bots, human int64
		for k, st := range snap.Stats {
			o, ok := testW.Registry.ByID(k.Org)
			if !ok || o.Type != typ {
				continue
			}
			bots += st.FilteredBots
			human += st.SampledRequests
		}
		if bots+human == 0 {
			return 0
		}
		return float64(bots) / float64(bots+human)
	}
	cloud := frac(orgs.CloudProvider)
	access := frac(orgs.FixedAccess)
	if cloud < 2*access {
		t.Errorf("cloud bot fraction %v not ≫ access %v", cloud, access)
	}
}

func TestShutdownDayVisible(t *testing.T) {
	// Find a Myanmar shutdown day in 2024 and check the CDN reacts.
	g := testGen()
	var shutDay, normalDay dates.Date
	for _, d := range dates.Range(dates.New(2024, 1, 1), dates.New(2024, 6, 30), 1) {
		if testW.ShutdownFactor("MM", d) < 1 {
			if shutDay == (dates.Date{}) {
				shutDay = d
			}
		} else if normalDay == (dates.Date{}) {
			normalDay = d
		}
	}
	if shutDay == (dates.Date{}) {
		t.Skip("no shutdown day realized in H1 2024")
	}
	vol := func(d dates.Date) float64 {
		total := 0.0
		for k, st := range g.Generate(d).Stats {
			if k.Country == "MM" {
				total += st.Bytes
			}
		}
		return total
	}
	vShut, vNorm := vol(shutDay), vol(normalDay)
	if vShut > 0.5*vNorm {
		t.Errorf("shutdown day volume %v not clearly below normal %v", vShut, vNorm)
	}
}

func TestMinSampledReqFloor(t *testing.T) {
	snap := testGen().Generate(dates.New(2023, 7, 20))
	for k, st := range snap.Stats {
		if k.Country == TorCountry {
			continue
		}
		if st.SampledRequests < minSampledReq {
			t.Fatalf("%v visible with %d sampled requests", k, st.SampledRequests)
		}
	}
}

func TestVolumeDominatedByBigOrgs(t *testing.T) {
	snap := testGen().Generate(dates.New(2023, 7, 20))
	vol := snap.VolumeShares("US")
	// The top org by volume should hold a sizable share.
	var top float64
	for _, v := range vol {
		if v > top {
			top = v
		}
	}
	if top < 0.08 {
		t.Errorf("top US volume share = %v; expected concentration", top)
	}
}
