package world

import (
	"math"
	"sort"
	"testing"

	"repro/internal/dates"
	"repro/internal/scenario"
)

// The reference below is the share table and the user formulas as they
// stood before shares became dense per-entry slices and market-days were
// resolved once: a map-of-maps table shares[year][orgID], re-resolved on
// every (country, org, day) query. The resolved path must reproduce it
// bit for bit.

// refShareTable is the pre-dense computeShares: per-year maps keyed by
// org ID.
func refShareTable(w *World, m *Market) map[int]map[string]float64 {
	table := map[int]map[string]float64{}
	for y := firstYear; y <= lastYear+1; y++ {
		gamma := consolidationGamma(m.Country.Subregion, y)
		row := map[string]float64{}
		total := 0.0
		eff := map[string]float64{}
		eyeball := map[string]bool{}
		for _, e := range m.Entries {
			if !activeIn(e, y) {
				continue
			}
			eff[e.Org.ID] += e.BaseWeight
			eyeball[e.Org.ID] = e.Org.Type.HostsUsers()
		}
		for _, e := range m.Entries {
			if e.ExitYear != 0 && y >= e.ExitYear && e.AbsorbedBy != "" {
				if _, ok := eff[e.AbsorbedBy]; ok {
					eff[e.AbsorbedBy] += e.BaseWeight
				}
			}
		}
		ids := make([]string, 0, len(eff))
		for id := range eff {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			v := eff[id]
			if eyeball[id] {
				v = math.Pow(v, gamma)
			}
			row[id] = v
			total += v
		}
		if total > 0 {
			for _, id := range ids {
				row[id] /= total
			}
		}
		table[y] = row
	}
	return table
}

// refWorld evaluates the pre-dense formulas over a world.
type refWorld struct {
	w      *World
	tables map[string]map[int]map[string]float64
}

func newRefWorld(w *World) *refWorld {
	r := &refWorld{w: w, tables: map[string]map[int]map[string]float64{}}
	for _, cc := range w.codes {
		r.tables[cc] = refShareTable(w, w.markets[cc])
	}
	return r
}

func (r *refWorld) shareInYear(country, orgID string, year int) float64 {
	if year < firstYear {
		year = firstYear
	}
	if year > lastYear+1 {
		year = lastYear + 1
	}
	return r.tables[country][year][orgID]
}

func (r *refWorld) TotalUsers(country string, d dates.Date) float64 {
	m := r.w.markets[country]
	if m == nil {
		return 0
	}
	y, f := yearFrac(d)
	u0 := m.Country.InternetUsers(y)
	u1 := m.Country.InternetUsers(y + 1)
	return u0 + f*(u1-u0)
}

func (r *refWorld) Share(country, orgID string, d dates.Date) float64 {
	if r.w.markets[country] == nil {
		return 0
	}
	y, f := yearFrac(d)
	s0 := r.shareInYear(country, orgID, y)
	s1 := r.shareInYear(country, orgID, y+1)
	return s0 + f*(s1-s0)
}

func (r *refWorld) TrueUsers(country, orgID string, d dates.Date) float64 {
	return r.TotalUsers(country, d) * r.Share(country, orgID, d)
}

func (r *refWorld) isVPNHub(country string) bool {
	m := r.w.markets[country]
	return m != nil && m.Country.VPNHub
}

func (r *refWorld) APNICUsers(country, orgID string, d dates.Date) float64 {
	u := r.TrueUsers(country, orgID, d)
	if orgID == r.w.VPNOrgID && r.isVPNHub(country) {
		u += r.w.VPNFunnelTotal(d)
	}
	return u
}

func (r *refWorld) CDNUsers(country, orgID string, d dates.Date) float64 {
	u := r.TrueUsers(country, orgID, d)
	if orgID == r.w.VPNOrgID && !r.isVPNHub(country) {
		u += r.w.VPNFunnelTotal(d) * r.w.vpnOrigin[country]
	}
	return u
}

// resolvedScenarios are the scenarios the bit-identity tests cover: the
// paper baseline plus every shock family that touches users or shares
// (sampling shocks, shutdown regimes, the VPN surge, entrants).
var resolvedScenarios = []string{
	"paper", "cgnat-wave", "ad-blackout", "shutdown-regimes", "vpn-surge", "starlink-entry",
}

// resolvedDays exercises the year clamps and the anchor boundaries:
// before firstYear, a Dec 31 / Jan 1 pair, mid-range, inside lastYear,
// and past lastYear+1.
var resolvedDays = []dates.Date{
	dates.New(2011, 3, 4),
	dates.New(2012, 12, 31),
	dates.New(2013, 1, 1),
	dates.New(2019, 12, 31),
	dates.New(2020, 1, 1),
	dates.New(2022, 3, 15),
	dates.New(2024, 2, 29),
	dates.New(2024, 12, 31),
	dates.New(2025, 1, 1),
	dates.New(2026, 7, 1),
}

func scenarioWorld(t testing.TB, name string) *World {
	t.Helper()
	s, ok := scenario.ByName(name)
	if !ok {
		t.Fatalf("no builtin scenario %q", name)
	}
	w, err := Build(Config{Seed: 42, Scenario: s})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// resolvedCountries returns the hub, every VPN origin, MM (shutdowns),
// the entrant presence countries and a few merger / Latin-American
// entrant markets, plus an unknown code.
func resolvedCountries(w *World) []string {
	ccs := []string{"MM", "BR", "CH", "DE", "FR", "IN", "NG", "US", "ZZ"}
	for _, cc := range w.codes {
		if w.markets[cc].Country.VPNHub {
			ccs = append(ccs, cc)
		}
	}
	for cc := range w.vpnOrigin {
		ccs = append(ccs, cc)
	}
	for _, pr := range w.entrantAway {
		ccs = append(ccs, pr.country)
	}
	return ccs
}

// TestResolvedUsersBitIdentical holds the dense shares and the resolved
// market-day to the map-table formulas: every per-entry MarketDay method
// and every World wrapper returns the reference's exact bits, for every
// entry, the VPN org (which has no entry in its origin countries) and an
// unknown org.
func TestResolvedUsersBitIdentical(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, name := range resolvedScenarios {
		t.Run(name, func(t *testing.T) {
			w := scenarioWorld(t, name)
			ref := newRefWorld(w)
			checked := 0
			for _, cc := range resolvedCountries(w) {
				m := w.markets[cc]
				for _, d := range resolvedDays {
					if got, want := w.TotalUsers(cc, d), ref.TotalUsers(cc, d); !same(got, want) {
						t.Fatalf("TotalUsers(%s, %s) = %v, reference %v", cc, d, got, want)
					}
					ids := []string{w.VPNOrgID, "ZZ-NONE-00"}
					if m != nil {
						md := w.Day(m, d)
						for _, e := range m.Entries {
							ids = append(ids, e.Org.ID)
							id := e.Org.ID
							for _, c := range []struct {
								what      string
								got, want float64
							}{
								{"Share", md.Share(e), ref.Share(cc, id, d)},
								{"TrueUsers", md.TrueUsers(e), ref.TrueUsers(cc, id, d)},
								{"APNICUsers", md.APNICUsers(e), ref.APNICUsers(cc, id, d)},
								{"CDNUsers", md.CDNUsers(e), ref.CDNUsers(cc, id, d)},
							} {
								if !same(c.got, c.want) {
									t.Fatalf("MarketDay.%s(%s/%s, %s) = %v, reference %v", c.what, cc, id, d, c.got, c.want)
								}
							}
						}
					}
					for _, id := range ids {
						for _, c := range []struct {
							what      string
							got, want float64
						}{
							{"Share", w.Share(cc, id, d), ref.Share(cc, id, d)},
							{"TrueUsers", w.TrueUsers(cc, id, d), ref.TrueUsers(cc, id, d)},
							{"APNICUsers", w.APNICUsers(cc, id, d), ref.APNICUsers(cc, id, d)},
							{"CDNUsers", w.CDNUsers(cc, id, d), ref.CDNUsers(cc, id, d)},
						} {
							if !same(c.got, c.want) {
								t.Fatalf("World.%s(%s, %s, %s) = %v, reference %v", c.what, cc, id, d, c.got, c.want)
							}
							checked++
						}
					}
				}
			}
			if checked < 1000 {
				t.Fatalf("only %d comparisons made", checked)
			}
		})
	}
}

// TestDenseSharesMatchTable compares every entry's dense share slice with
// the reference table, year by year, in every market.
func TestDenseSharesMatchTable(t *testing.T) {
	for _, name := range resolvedScenarios {
		t.Run(name, func(t *testing.T) {
			w := scenarioWorld(t, name)
			for _, cc := range w.codes {
				m := w.markets[cc]
				table := refShareTable(w, m)
				for _, e := range m.Entries {
					if len(e.shares) != lastYear+2-firstYear {
						t.Fatalf("%s/%s: %d share anchors", cc, e.Org.ID, len(e.shares))
					}
					for y := firstYear; y <= lastYear+1; y++ {
						got, want := e.shares[y-firstYear], table[y][e.Org.ID]
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s/%s %d: share %v, reference %v", cc, e.Org.ID, y, got, want)
						}
					}
				}
			}
		})
	}
}

// BenchmarkWorldBuild measures world construction at the paper scenario:
// markets, mergers, VPN, dense shares and address allocation.
func BenchmarkWorldBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(Config{Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}
