// Package dnscount simulates the DNS-based client-identification baseline
// the paper discusses in §7 (Jiang et al., "Towards Identifying Networks
// with Internet Clients Using Public Data"): counting queries that reach
// public recursive resolvers and root servers, attributed to the client's
// AS. The paper's characterization — which this simulator reproduces — is
// that DNS analysis identifies *user presence* within an AS well, but
// does not infer user magnitude or traffic volume:
//
//   - Resolver caching compresses volume: an org with 10× the users
//     produces far less than 10× the upstream queries (popular domains
//     are answered from cache), modelled as a sublinear exponent.
//   - Infrastructure noise: enterprise and cloud networks emit heavy
//     automated query loads unrelated to human users.
//   - Coverage is excellent: even a handful of users leak some queries,
//     so presence detection beats APNIC's 120-sample floor.
//   - Resolver visibility varies wildly per network: ISPs running their
//     own recursive resolvers are nearly invisible to public-resolver
//     vantage points, so relative magnitudes are scrambled even where
//     presence is detected — "identifies the user presence within an AS,
//     [but] does not infer traffic volume" (§7).
package dnscount

import (
	"math"

	"repro/internal/dates"
	"repro/internal/orgs"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/world"
)

// Derivation channel keys for the visibility and query-count streams.
const (
	chanVisibility uint64 = iota + 1
	chanQueries
)

// CacheExponent is the sublinear users→queries exponent induced by
// resolver caching. 1.0 would mean no cache compression.
const CacheExponent = 0.62

// minQueries is the presence-detection floor: a (country, org) with
// fewer upstream queries is absent from the day's counts.
const minQueries = 25

// Generator produces DNS query-count datasets over a world.
type Generator struct {
	W *world.World

	root *rng.Stream
}

// New returns a generator over w.
func New(w *world.World, seed uint64) *Generator {
	return &Generator{W: w, root: rng.New(seed).Split("dns")}
}

// Dataset is one day of per-(country, org) upstream query counts.
// Queries must not change after the first per-country query.
type Dataset struct {
	Date    dates.Date
	Queries map[orgs.CountryOrg]float64

	byCountry orgs.CountryIndex[float64] // Queries grouped by country
}

// Generate produces the query counts observed on a day.
func (g *Generator) Generate(d dates.Date) *Dataset {
	ds := &Dataset{Date: d, Queries: map[orgs.CountryOrg]float64{}}
	for _, cc := range g.W.Countries() {
		m := g.W.Market(cc)
		shut := g.W.ShutdownFactor(cc, d)
		md := g.W.Day(m, d)
		for _, e := range m.ActiveEntries(d) {
			users := md.TrueUsers(e)
			if users <= 0 {
				continue
			}
			// Cache-compressed human queries plus automated load.
			human := 40 * pow(users, CacheExponent)
			auto := 0.0
			switch e.Org.Type {
			case orgs.Enterprise:
				auto = users * 8
			case orgs.CloudProvider, orgs.CDNProvider:
				auto = users * 300
			}
			// Persistent per-org resolver visibility: how much of the
			// org's resolution load reaches public vantage points.
			vs := g.root.Derive(chanVisibility, m.Key(), e.Key)
			visibility := vs.LogNormal(0, 0.7)
			if vs.Bool(0.3) {
				visibility *= 0.05 // org operates its own resolvers
			}
			s := g.root.Derive(chanQueries, m.Key(), e.Key, uint64(int64(d.DayNumber())))
			mean := (human + auto) * visibility * shut * s.LogNormal(0, 0.15)
			n := s.Poisson(mean)
			if n < minQueries {
				continue
			}
			ds.Queries[orgs.CountryOrg{Country: cc, Org: e.Org.ID}] = float64(n)
		}
	}
	return ds
}

// pow guards math.Pow against non-positive bases.
func pow(x, y float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, y)
}

// CountryShares returns one country's per-org query shares, summing to 1.
func (ds *Dataset) CountryShares(country string) map[string]float64 {
	// Sorted-order summation keeps the shares bit-reproducible.
	return stats.NormalizeMap(ds.byCountry.Copy(ds.Queries, country))
}
