// Package mlab simulates the M-Lab NDT speed-test dataset (§3.5):
// voluntary, user-initiated browser speed tests, counted per
// (country, org). The modelled biases follow the paper:
//
//   - Voluntary initiation: a persistent per-org "tech-savviness" skew
//     distorts relative counts.
//   - Search-engine gating: in countries where M-Lab is not integrated
//     into Google Search results, almost nobody finds the test — the
//     paper excludes those countries, and the generator reflects the
//     collapse in counts.
//   - Poor-performance triggering: users test more when the network
//     misbehaves, adding day-level noise.
//   - Shutdown days suppress testing like everything else.
package mlab

import (
	"repro/internal/dates"
	"repro/internal/orgs"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/world"
)

// Derivation channel keys for the per-org and per-month noise streams.
const (
	chanSavvy uint64 = iota + 1
	chanMonthNoise
	chanCount
)

// baseRate is the expected tests per user per month in integrated
// countries.
const baseRate = 0.02

// Generator produces M-Lab-style test-count datasets over a world.
type Generator struct {
	W *world.World

	root *rng.Stream
}

// New returns a generator over w.
func New(w *world.World, seed uint64) *Generator {
	return &Generator{W: w, root: rng.New(seed).Split("mlab")}
}

// Dataset holds one month of test counts. Counts must not change after
// the first per-country query.
type Dataset struct {
	Month  dates.Date // first day of the month
	Counts map[orgs.CountryOrg]float64

	byCountry orgs.CountryIndex[float64] // Counts grouped by country
}

// Integrated reports whether M-Lab is surfaced in search results for a
// country — the paper's first filtering step (§5.2).
func (g *Generator) Integrated(country string) bool {
	m := g.W.Market(country)
	return m != nil && m.Country.MLabIntegrated
}

// Generate produces the test counts for the month containing d.
func (g *Generator) Generate(d dates.Date) *Dataset {
	month := dates.New(d.Year, d.Month, 1)
	ds := &Dataset{Month: month, Counts: map[orgs.CountryOrg]float64{}}
	for _, cc := range g.W.Countries() {
		m := g.W.Market(cc)
		rate := baseRate
		if !m.Country.MLabIntegrated {
			// Only users who seek out the M-Lab site run tests.
			rate *= 0.02
		}
		shut := g.W.ShutdownWindowFactor(cc, month.AddDays(27), 28)
		monthKey := uint64(int64(month.DayNumber()))
		md := g.W.Day(m, month)
		for _, e := range m.ActiveEntries(month) {
			if !e.Org.Type.HostsUsers() {
				continue
			}
			users := md.TrueUsers(e)
			// Persistent voluntary-tester skew per org.
			ss := g.root.Derive(chanSavvy, m.Key(), e.Key)
			savvy := ss.LogNormal(0, 0.25)
			// Month-level performance-trigger noise.
			ms := g.root.Derive(chanMonthNoise, m.Key(), e.Key, monthKey)
			noise := ms.LogNormal(0, 0.12)
			mean := users * rate * savvy * noise * shut
			if mean <= 0 {
				continue
			}
			cs := g.root.Derive(chanCount, m.Key(), e.Key, monthKey)
			n := cs.Poisson(mean)
			if n < 20 {
				continue // too few tests to be published meaningfully
			}
			ds.Counts[orgs.CountryOrg{Country: cc, Org: e.Org.ID}] = float64(n)
		}
	}
	return ds
}

// CountryShares returns one country's per-org share of tests, summing
// to 1.
func (ds *Dataset) CountryShares(country string) map[string]float64 {
	// Sorted-order summation keeps the shares bit-reproducible.
	return stats.NormalizeMap(ds.byCountry.Copy(ds.Counts, country))
}
