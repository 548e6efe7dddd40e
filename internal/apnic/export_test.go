package apnic

import "repro/internal/dates"

// Test-only access to the uncached scan paths, so the memo regression
// tests can compare the cache front door against the raw computation.

func (g *Generator) CountryTotalsUncached(country string, d dates.Date) (int64, float64) {
	return g.countryTotalsScan(country, d)
}

func (g *Generator) CountryOrgSharesUncached(country string, d dates.Date) map[string]float64 {
	return g.countryOrgSharesScan(country, d)
}

// MemoStats reports the uncached scans behind CountryTotals and
// CountryOrgShares. Under the singleflight contract each equals the
// number of distinct (country, day) pairs requested.
func (g *Generator) MemoStats() (totalsScans, sharesScans int64) {
	return g.totalsScans.Load(), g.sharesScans.Load()
}

// MemoLen reports how many (country, day) entries each memo cache holds.
func (g *Generator) MemoLen() (totals, shares int) {
	return g.totalsMemo.Len(), g.sharesMemo.Len()
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

// NoiseMemo reports how many window-noise vectors were drawn and how many
// (country, year, week) entries the noise memo holds.
func (g *Generator) NoiseMemo() (fills int64, entries int) {
	return g.noiseFills.Load(), g.noiseMemo.Len()
}
