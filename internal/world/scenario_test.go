package world_test

import (
	"math"
	"net/netip"
	"testing"

	"repro/internal/apnic"
	"repro/internal/dates"
	"repro/internal/itu"
	"repro/internal/netdb"
	"repro/internal/scenario"
	"repro/internal/world"
)

// mustScenario builds a world under a named builtin scenario.
func mustScenario(t *testing.T, seed uint64, name string) *world.World {
	t.Helper()
	s, ok := scenario.ByName(name)
	if !ok {
		t.Fatalf("no builtin scenario %q", name)
	}
	w, err := world.Build(world.Config{Seed: seed, Scenario: s})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestNilScenarioIsPaper pins the refactor's central identity: a nil
// Config.Scenario and an explicit scenario.Paper() build the same world —
// same markets, same per-org parameters, same event realizations. The
// byte-level pins against the pre-refactor generator outputs live in the
// dataset packages' golden tests; this covers the construction path.
func TestNilScenarioIsPaper(t *testing.T) {
	a := world.MustBuild(world.Config{Seed: 123})
	b := world.MustBuild(world.Config{Seed: 123, Scenario: scenario.Paper()})

	ac, bc := a.Countries(), b.Countries()
	if len(ac) != len(bc) {
		t.Fatalf("country counts differ: %d vs %d", len(ac), len(bc))
	}
	for i, cc := range ac {
		if bc[i] != cc {
			t.Fatalf("country order differs at %d: %s vs %s", i, cc, bc[i])
		}
		ma, mb := a.Market(cc), b.Market(cc)
		if len(ma.Entries) != len(mb.Entries) {
			t.Fatalf("%s: entry counts differ: %d vs %d", cc, len(ma.Entries), len(mb.Entries))
		}
		for j, ea := range ma.Entries {
			eb := mb.Entries[j]
			if ea.Org.ID != eb.Org.ID || ea.BaseWeight != eb.BaseWeight ||
				ea.EntryYear != eb.EntryYear || ea.ExitYear != eb.ExitYear ||
				ea.AbsorbedBy != eb.AbsorbedBy || ea.AdFactor != eb.AdFactor ||
				ea.APNICBias != eb.APNICBias || ea.TrafficPerUser != eb.TrafficPerUser {
				t.Fatalf("%s entry %d differs: %+v vs %+v", cc, j, ea, eb)
			}
		}
	}
	// Event realizations: every Myanmar shutdown day must agree.
	d := dates.New(2024, 1, 1)
	for i := 0; i < 365; i++ {
		day := d.AddDays(i)
		if fa, fb := a.ShutdownFactor("MM", day), b.ShutdownFactor("MM", day); fa != fb {
			t.Fatalf("MM shutdown factor differs on %v: %v vs %v", day, fa, fb)
		}
	}
	if fa, fb := a.VPNFunnelTotal(d), b.VPNFunnelTotal(d); fa != fb {
		t.Fatalf("VPN funnel differs: %v vs %v", fa, fb)
	}
}

// TestShutdownWindowFactorNonPositiveWindow is the regression test for the
// window guard: the pre-scenario code divided the (empty) sum by the
// window, so window == 0 returned NaN and a negative window returned +Inf
// or NaN — either poisons every downstream estimate for a shutdown-prone
// country. A non-positive window has no days to average and must be the
// neutral factor 1.
func TestShutdownWindowFactorNonPositiveWindow(t *testing.T) {
	w := world.MustBuild(world.Config{Seed: 42})
	// Myanmar has a nonzero baseline ShutdownRate, so the guard — not the
	// no-shutdowns fast path — is what protects it.
	if w.Market("MM").Country.ShutdownRate == 0 {
		t.Fatal("test premise broken: MM must have a baseline shutdown rate")
	}
	d := dates.New(2024, 4, 21)
	for _, window := range []int{0, -1, -30} {
		f := w.ShutdownWindowFactor("MM", d, window)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("window %d: factor %v escaped the guard", window, f)
		}
		if f != 1 {
			t.Fatalf("window %d: factor = %v, want 1", window, f)
		}
	}
	// Sanity: a real window still averages to something in (0, 1].
	if f := w.ShutdownWindowFactor("MM", d, 60); f <= 0 || f > 1 {
		t.Fatalf("window 60: factor = %v out of (0,1]", f)
	}
}

// TestCGNATRolloutSuppressesSamples checks the cgnat-wave counterfactual
// end to end: Brazil's ad-visible sample counts collapse by the rollout
// factor while the ground truth (and hence the ITU denominator) is
// untouched — the users-per-sample explosion that flips the elasticity
// check in the fleet sweeps.
func TestCGNATRolloutSuppressesSamples(t *testing.T) {
	const seed = 42
	paper := world.MustBuild(world.Config{Seed: seed})
	cgnat := mustScenario(t, seed, "cgnat-wave")

	d := dates.New(2024, 4, 21)
	sum := func(w *world.World) int64 {
		g := apnic.New(w, itu.New(w, seed), seed)
		var total int64
		for _, c := range g.DayCounts(d) {
			if c.CC == "BR" {
				total += c.Samples
			}
		}
		return total
	}
	base, shocked := sum(paper), sum(cgnat)
	if base == 0 {
		t.Fatal("paper world has no BR samples")
	}
	ratio := float64(shocked) / float64(base)
	// Rollout factor is 0.05; integer rounding keeps the ratio near it.
	if ratio > 0.1 || ratio < 0.01 {
		t.Fatalf("BR sample ratio = %v, want ≈ 0.05", ratio)
	}
	// Ground truth unmoved: same true users under both worlds.
	if a, b := paper.TotalUsers("BR", d), cgnat.TotalUsers("BR", d); a != b {
		t.Fatalf("CGNAT must not change true users: %v vs %v", a, b)
	}
}

// TestShutdownRegimeRaisesShutdownDays checks that a scenario regime adds
// shutdown days during its window and only reuses the baseline
// realization: every paper-world shutdown day inside the window is still a
// shutdown day under the regime (same underlying draws, higher threshold).
func TestShutdownRegimeRaisesShutdownDays(t *testing.T) {
	const seed = 7
	paper := world.MustBuild(world.Config{Seed: seed})
	reg := mustScenario(t, seed, "shutdown-regimes")

	// The builtin pins Iran at rate 0.45 during 2022-09-15..2024-12-31.
	start := dates.New(2023, 1, 1)
	var basedays, regdays int
	for i := 0; i < 365; i++ {
		day := start.AddDays(i)
		pf := paper.ShutdownFactor("IR", day)
		rf := reg.ShutdownFactor("IR", day)
		if pf < 1 {
			basedays++
			if rf >= 1 {
				t.Fatalf("%v: baseline shutdown day vanished under the regime", day)
			}
		}
		if rf < 1 {
			regdays++
		}
	}
	if regdays <= basedays {
		t.Fatalf("regime shutdown days = %d, baseline = %d; regime must add days", regdays, basedays)
	}
	// Outside the window the regime is inert: identical realization.
	before := dates.New(2021, 6, 1)
	for i := 0; i < 100; i++ {
		day := before.AddDays(i)
		if paper.ShutdownFactor("IR", day) != reg.ShutdownFactor("IR", day) {
			t.Fatalf("%v: pre-regime realization differs", day)
		}
	}
}

// TestMergerOverrideOutsideEurope forces a merger in a market the paper's
// consolidation waves never touch, and checks the paper world is unmoved.
func TestMergerOverrideOutsideEurope(t *testing.T) {
	const seed = 11
	s := scenario.Paper()
	s.Name = "us-merger"
	s.Mergers = append(s.Mergers, scenario.MergerOverride{Country: "US", Year: 2021, Probability: 1})
	forced, err := world.Build(world.Config{Seed: seed, Scenario: s})
	if err != nil {
		t.Fatal(err)
	}
	paper := world.MustBuild(world.Config{Seed: seed})

	count := func(w *world.World) int {
		n := 0
		for _, e := range w.Market("US").Entries {
			if e.ExitYear == 2021 && e.AbsorbedBy != "" {
				n++
			}
		}
		return n
	}
	if n := count(paper); n != 0 {
		t.Fatalf("paper world already has %d US mergers in 2021", n)
	}
	if n := count(forced); n != 1 {
		t.Fatalf("override produced %d US mergers, want 1", n)
	}
	// The override draws from a child split: the rest of the US market —
	// and every other country — is byte-identical to the paper world.
	pe, fe := paper.Market("US").Entries, forced.Market("US").Entries
	if len(pe) != len(fe) {
		t.Fatalf("US entry counts differ: %d vs %d", len(pe), len(fe))
	}
	for i := range pe {
		if pe[i].Org.ID != fe[i].Org.ID || pe[i].AdFactor != fe[i].AdFactor {
			t.Fatalf("US entry %d perturbed by override", i)
		}
	}
	pj, fj := paper.Market("JP").Entries, forced.Market("JP").Entries
	for i := range pj {
		if pj[i].APNICBias != fj[i].APNICBias {
			t.Fatalf("JP entry %d perturbed by a US-only override", i)
		}
	}
}

// TestEntrantScenario checks the Starlink-style entrant: a new org
// registered in its home country with market entries everywhere it
// operates, users appearing only from its entry year, and away-market
// prefixes that geolocate to the registered home (the misattribution
// mechanism) while the true country stays local.
func TestEntrantScenario(t *testing.T) {
	const seed = 42
	w := mustScenario(t, seed, "starlink-entry")

	o, ok := w.Registry.ByID("GLOBALSAT")
	if !ok {
		t.Fatal("entrant org missing from registry")
	}
	if o.Home != "US" {
		t.Fatalf("entrant home = %s", o.Home)
	}
	for _, cc := range []string{"US", "AU", "BR", "NG"} {
		e := w.Entry(cc, "GLOBALSAT")
		if e == nil {
			t.Fatalf("no %s market entry for entrant", cc)
		}
		if e.EntryYear != 2021 {
			t.Fatalf("%s entry year = %d", cc, e.EntryYear)
		}
	}
	// Shares interpolate between Jan-1 anchors, so the last fully-zero
	// year is two before entry (2020 ramps toward the 2021 anchor).
	if s := w.Share("AU", "GLOBALSAT", dates.New(2019, 6, 1)); s != 0 {
		t.Fatalf("entrant has share %v before entry year", s)
	}
	if s := w.Share("AU", "GLOBALSAT", dates.New(2024, 6, 1)); s <= 0 {
		t.Fatal("entrant has no share after entry year")
	}
	// Away prefixes are announced home-registered: the registered-country
	// view of AU's entrant addresses says US, the true view says AU.
	asns := map[uint32]bool{}
	for _, asn := range o.ASNs {
		asns[asn] = true
	}
	found := false
	w.RoutingDB().Walk(func(p netip.Prefix, r netdb.Route) bool {
		if asns[r.ASN] && r.TrueCountry == "AU" {
			found = true
			if r.RegisteredCountry != "US" {
				t.Errorf("AU entrant prefix %v registered to %s, want US", p, r.RegisteredCountry)
			}
		}
		return true
	})
	if !found {
		t.Fatal("no away prefix with TrueCountry AU found for entrant")
	}
	// The paper world knows nothing of the entrant.
	paper := world.MustBuild(world.Config{Seed: seed})
	if _, ok := paper.Registry.ByID("GLOBALSAT"); ok {
		t.Fatal("entrant leaked into the paper world")
	}
}

// TestVPNSurgeScalesFunnel checks the vpn-surge counterfactual: the funnel
// triples after the surge date and is untouched before it.
func TestVPNSurgeScalesFunnel(t *testing.T) {
	const seed = 42
	paper := world.MustBuild(world.Config{Seed: seed})
	surge := mustScenario(t, seed, "vpn-surge")

	before := dates.New(2022, 5, 1)
	if a, b := paper.VPNFunnelTotal(before), surge.VPNFunnelTotal(before); a != b {
		t.Fatalf("funnel differs before surge: %v vs %v", a, b)
	}
	after := dates.New(2023, 6, 1)
	a, b := paper.VPNFunnelTotal(after), surge.VPNFunnelTotal(after)
	if math.Abs(b-3*a) > 1e-6*a {
		t.Fatalf("funnel after surge = %v, want 3 × %v", b, a)
	}
}
