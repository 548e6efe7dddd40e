package apnic

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dates"
	"repro/internal/itu"
	"repro/internal/scenario"
	"repro/internal/world"
)

// The reference below is the APNIC sampling path as it stood before
// market-days were resolved once per (country, day): every factor of an
// org's expected sample count re-derived per (country, org, day) through
// the World's per-org queries. The resolved scans must reproduce its
// counts exactly.

func refOrgSamples(g *Generator, m *world.Market, country string, e *world.Entry, d dates.Date) int64 {
	apparent := g.W.APNICUsers(country, e.Org.ID, d)
	reach := m.Country.AdReach
	if sh := m.Shocks(); sh != nil && sh.HasSampling() {
		reach *= sh.SamplingFactor(d.DayNumber())
	}
	wk := d.DayNumber() / 7
	ns := g.root.Derive(chanVolatility, m.Key(), e.Key, uint64(int64(wk)))
	noise := ns.LogNormal(0, m.Country.AdVolatility)
	mean := apparent * reach * e.AdFactor * e.APNICBias *
		sampleRate * noise * g.W.ShutdownWindowFactor(country, d, g.Window)
	if mean <= 0 {
		return 0
	}
	s := g.root.Derive(chanPoisson, m.Key(), e.Key, uint64(int64(d.DayNumber())))
	return s.Poisson(mean)
}

// refSplit is the inline per-AS split every scan used to carry.
func refSplit(e *world.Entry, total int64) []int64 {
	out := make([]int64, len(e.Org.ASNs))
	var assigned int64
	for i := range e.Org.ASNs {
		var share int64
		if i == len(e.Org.ASNs)-1 {
			share = total - assigned
		} else {
			share = int64(float64(total) * e.ASNWeights[i])
		}
		assigned += share
		out[i] = share
	}
	return out
}

func refCountryTotals(g *Generator, country string, d dates.Date) (samples int64, users float64) {
	m := g.W.Market(country)
	if m == nil {
		return 0, 0
	}
	for _, e := range m.ActiveEntries(d) {
		total := refOrgSamples(g, m, country, e, d)
		if total == 0 {
			continue
		}
		for _, share := range refSplit(e, total) {
			if share >= g.MinSamples {
				samples += share
			}
		}
	}
	if samples > 0 {
		users = g.ITU.Users(country, d)
	}
	return samples, users
}

func refCountryOrgShares(g *Generator, country string, d dates.Date) map[string]float64 {
	m := g.W.Market(country)
	if m == nil {
		return nil
	}
	out := map[string]float64{}
	var total int64
	for _, e := range m.ActiveEntries(d) {
		orgTotal := refOrgSamples(g, m, country, e, d)
		if orgTotal == 0 {
			continue
		}
		var included int64
		for _, share := range refSplit(e, orgTotal) {
			if share >= g.MinSamples {
				included += share
			}
		}
		if included > 0 {
			out[e.Org.ID] = float64(included)
			total += included
		}
	}
	if total == 0 {
		return map[string]float64{}
	}
	for k := range out {
		out[k] /= float64(total)
	}
	return out
}

func refDayCounts(g *Generator, d dates.Date) []ASCount {
	var counts []ASCount
	for _, code := range g.W.Countries() {
		m := g.W.Market(code)
		for _, e := range m.ActiveEntries(d) {
			total := refOrgSamples(g, m, code, e, d)
			if total == 0 {
				continue
			}
			for i, share := range refSplit(e, total) {
				if share > 0 {
					counts = append(counts, ASCount{CC: code, ASN: e.Org.ASNs[i], Samples: share})
				}
			}
		}
	}
	return counts
}

// TestResolvedScansMatchReference compares the resolved APNIC scans with
// the per-(country, org, day) reference under every user- or
// sampling-shock scenario: exact CountryTotals, bit-identical
// CountryOrgShares, identical DayCounts. The countries cover the VPN hub
// and its origins, MM's shutdowns, the scenarios' shocked markets and the
// entrant's presence; the days cover the clamps before the first and
// after the last simulated year and the Dec 31 / Jan 1 boundary.
func TestResolvedScansMatchReference(t *testing.T) {
	ccs := []string{
		"NO", "DE", "GB", "US", "FR", "SE", "DK", "NL", "PL", "FI", "RU", // hub + origins
		"MM", "IR", "TR", "BR", "IN", "ID", "AU", "NG", "ZZ",
	}
	days := []dates.Date{
		dates.New(2012, 11, 20),
		dates.New(2019, 12, 31),
		dates.New(2020, 1, 1),
		dates.New(2022, 3, 15),
		dates.New(2022, 6, 2),
		dates.New(2023, 7, 20),
		dates.New(2024, 4, 20),
		dates.New(2024, 12, 31),
		dates.New(2025, 2, 1),
	}
	countDays := []dates.Date{dates.New(2012, 11, 20), dates.New(2024, 4, 20), dates.New(2025, 2, 1)}
	for _, name := range []string{"paper", "cgnat-wave", "ad-blackout", "shutdown-regimes", "vpn-surge", "starlink-entry"} {
		t.Run(name, func(t *testing.T) {
			sc, ok := scenario.ByName(name)
			if !ok {
				t.Fatalf("no builtin scenario %q", name)
			}
			w := world.MustBuild(world.Config{Seed: 42, Scenario: sc})
			g := New(w, itu.New(w, 42), 42)
			for _, cc := range ccs {
				for _, d := range days {
					wantS, wantU := refCountryTotals(g, cc, d)
					if gotS, gotU := g.CountryTotals(cc, d); gotS != wantS || math.Float64bits(gotU) != math.Float64bits(wantU) {
						t.Fatalf("CountryTotals(%s, %s) = (%d, %v), reference (%d, %v)", cc, d, gotS, gotU, wantS, wantU)
					}
					want := refCountryOrgShares(g, cc, d)
					got := g.CountryOrgShares(cc, d)
					if len(got) != len(want) || (got == nil) != (want == nil) {
						t.Fatalf("CountryOrgShares(%s, %s): %d orgs, reference %d", cc, d, len(got), len(want))
					}
					for id, v := range want {
						if gv, ok := got[id]; !ok || math.Float64bits(gv) != math.Float64bits(v) {
							t.Fatalf("CountryOrgShares(%s, %s)[%s] = %v, reference %v", cc, d, id, gv, v)
						}
					}
					if m := w.Market(cc); m != nil {
						for _, e := range m.ActiveEntries(d) {
							if got, want := g.OrgSamples(cc, e.Org.ID, d), refOrgSamples(g, m, cc, e, d); got != want {
								t.Fatalf("OrgSamples(%s, %s, %s) = %d, reference %d", cc, e.Org.ID, d, got, want)
							}
						}
					}
				}
			}
			for _, d := range countDays {
				if got, want := g.DayCounts(d), refDayCounts(g, d); !reflect.DeepEqual(got, want) {
					t.Fatalf("DayCounts(%s): %d counts, reference %d, or contents differ", d, len(got), len(want))
				}
			}
		})
	}
}

// BenchmarkCountryTotalsScan measures one uncached per-(country, day)
// totals scan — the unit of work behind the best-day rule and the K-S
// stability curves — over a spread of market sizes.
func BenchmarkCountryTotalsScan(b *testing.B) {
	g := testGen()
	ccs := []string{"DE", "IN", "RU", "MM", "NO", "US", "BR", "NG"}
	d := dates.New(2023, 7, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, cc := range ccs {
			g.CountryTotalsUncached(cc, d)
		}
	}
}
