// Package broadband simulates the Broadband Subscriber dataset (§3.3):
// per-ISP subscriber counts hand-collected from official disclosures and
// market surveys in 20 countries. Its defining properties, all modelled:
//
//   - It covers access networks only — pure mobile carriers, enterprise,
//     cloud and VPN networks are absent.
//   - It counts *subscriptions*, not users: one subscription covers a
//     household, and only the fixed-line side of a converged carrier.
//     This is why mobile-heavy carriers look overrepresented in APNIC
//     relative to this dataset (Figure 2's Telstra/KT/Jio outliers).
//   - Survey noise: countries covered by surveys rather than mandatory
//     disclosure carry extra sampling error.
package broadband

import (
	"sort"

	"repro/internal/dates"
	"repro/internal/rng"
	"repro/internal/world"
)

// SurveyCountries is the fixed set of countries the paper hand-collected
// (Figure 2 covers 20 countries across 3+ continents).
var SurveyCountries = []string{
	"AT", "AU", "BR", "CA", "CH", "DE", "FI", "FR", "GB", "IN",
	"IT", "JP", "KR", "MX", "PL", "RU", "SE", "US", "ZA", "ES",
}

// chanSubs is the derivation channel key for the persistent per-org
// subscriber-survey noise stream.
const chanSubs uint64 = 1

// officialReport marks countries with mandatory-disclosure regimes whose
// numbers are nearly exact; the rest are looser market surveys.
var officialReport = map[string]bool{
	"AU": true, "CA": true, "DE": true, "FI": true, "FR": true,
	"GB": true, "JP": true, "KR": true, "SE": true, "US": true,
}

// Dataset is the collected survey: per country, each surveyed org's share
// of the country's broadband (fixed) subscribers, summing to 1.
type Dataset struct {
	Date   dates.Date
	Shares map[string]map[string]float64 // country -> orgID -> share
}

// Generator builds broadband datasets over a world.
type Generator struct {
	W    *world.World
	root *rng.Stream
}

// New returns a generator.
func New(w *world.World, seed uint64) *Generator {
	return &Generator{W: w, root: rng.New(seed).Split("broadband")}
}

// Generate collects the survey as of a date.
func (g *Generator) Generate(d dates.Date) *Dataset {
	ds := &Dataset{Date: d, Shares: map[string]map[string]float64{}}
	for _, cc := range SurveyCountries {
		m := g.W.Market(cc)
		if m == nil {
			continue
		}
		// Official-disclosure numbers are nearly exact; market surveys
		// (Statista-style panels of ~1300 respondents) carry substantial
		// per-ISP sampling error.
		sigma := 0.30
		if officialReport[cc] {
			sigma = 0.04
		}
		row := map[string]float64{}
		total := 0.0
		md := g.W.Day(m, d)
		for _, e := range m.ActiveEntries(d) {
			if !e.Org.Type.IsAccess() {
				continue
			}
			fixedUsers := md.TrueUsers(e) * (1 - e.MobileShare)
			subs := fixedUsers / m.Country.HouseholdSize
			if subs < 1000 {
				continue // below any survey's radar
			}
			ns := g.root.Derive(chanSubs, m.Key(), e.Key)
			noise := ns.LogNormal(0, sigma)
			row[e.Org.ID] = subs * noise
			total += row[e.Org.ID]
		}
		if total == 0 {
			continue
		}
		for k := range row {
			row[k] /= total
		}
		ds.Shares[cc] = row
	}
	return ds
}

// Countries returns the sorted countries present in the dataset.
func (ds *Dataset) Countries() []string {
	out := make([]string, 0, len(ds.Shares))
	for c := range ds.Shares {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
