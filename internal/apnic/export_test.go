package apnic

import "repro/internal/dates"

// Test-only access to the uncached scan paths, so the memo regression
// tests can compare the cache front door against the raw computation.
// Both draw every count afresh; only the week's noise comes from the
// scan table.

func (g *Generator) CountryTotalsUncached(country string, d dates.Date) (int64, float64) {
	at, ok := g.locate(country, d)
	if !ok {
		return 0, 0
	}
	ad := g.resolve(at.m, d)
	return g.countryTotalsScan(&at, &ad, g.weekNoise(&at, &ad))
}

func (g *Generator) CountryOrgSharesUncached(country string, d dates.Date) map[string]float64 {
	at, ok := g.locate(country, d)
	if !ok {
		return nil
	}
	ad := g.resolve(at.m, d)
	return g.countryOrgSharesScan(&at, &ad, g.weekNoise(&at, &ad))
}

// Plans reports how many year plans the scan tables hold.
func (g *Generator) Plans() int {
	n := 0
	for _, t := range g.tables {
		n += t.plans.Len()
	}
	return n
}

// NoiseLen returns the length of the noise vector the scan table holds
// for a (country, day), or -1 when none has been drawn.
func (g *Generator) NoiseLen(country string, d dates.Date) int {
	at, ok := g.locate(country, d)
	if !ok || !at.week.has(noiseDone) {
		return -1
	}
	return len(at.week.noise)
}

// MemoStats reports the day-slot fills behind CountryTotals and
// CountryOrgShares. Under the fill-once contract each equals the number
// of distinct (country, day) pairs requested.
func (g *Generator) MemoStats() (totalsScans, sharesScans int64) {
	return g.totalsScans.Load(), g.sharesScans.Load()
}

// OrgSamples returns the expected-plus-noise ad-impression count for one
// (country, org) on a date, before the per-AS split and inclusion floor.
func (g *Generator) OrgSamples(country, orgID string, d dates.Date) int64 {
	e := g.W.Entry(country, orgID)
	if e == nil {
		return 0
	}
	ad := g.resolve(g.W.Market(country), d)
	return g.orgSamples(&ad, e)
}

// CountryUsers sums estimated users per country: the report-side oracle
// for the generator's per-country totals.
func (r *Report) CountryUsers() map[string]float64 {
	out := map[string]float64{}
	for _, row := range r.Rows {
		out[row.CC] += row.Users
	}
	return out
}

// CountrySamples sums raw samples per country.
func (r *Report) CountrySamples() map[string]int64 {
	out := map[string]int64{}
	for _, row := range r.Rows {
		out[row.CC] += row.Samples
	}
	return out
}

// NoiseFills reports how many window-noise vectors were drawn.
func (g *Generator) NoiseFills() int64 { return g.noiseFills.Load() }
