// Package ixp simulates the IXP peering-capacity dataset (§3.6): per-AS
// port capacities aggregated across Internet exchange points, as reported
// in a PeeringDB-like public registry — plus the *hidden* Private Network
// Interconnect (PNI) capacities the paper can only study through the CDN
// (Appendix E).
//
// Modelled properties:
//
//   - Capacity tracks traffic demand with headroom, so it is a (noisy,
//     nonlinear) proxy for traffic volume.
//   - Public incompleteness: PNIs are invisible, many networks are not in
//     the registry at all, and registry coverage is thin where IXPs play
//     a minor role (Africa).
//   - Port quantization: registered capacity is a sum of standard port
//     sizes (1G / 10G / 100G / 400G).
//   - The IXP↔PNI relationship is real but loose (the paper measures
//     R² ≈ 0.47), because large eyeballs shift traffic to PNIs.
package ixp

import (
	"repro/internal/dates"
	"repro/internal/orgs"
	"repro/internal/rng"
	"repro/internal/world"
)

// Port sizes in bit/s.
const (
	Gbps    = 1e9
	port1G  = 1 * Gbps
	port10G = 10 * Gbps
	port100 = 100 * Gbps
	port400 = 400 * Gbps
)

// chanCap is the derivation channel key for the persistent per-org
// capacity/registration noise stream.
const chanCap uint64 = 1

// Generator produces IXP capacity snapshots over a world.
type Generator struct {
	W    *world.World
	root *rng.Stream
}

// New returns a generator.
func New(w *world.World, seed uint64) *Generator {
	return &Generator{W: w, root: rng.New(seed).Split("ixp")}
}

// Snapshot is one registry scrape.
type Snapshot struct {
	Date dates.Date

	// Capacities is the public per-(country, org) total IXP port
	// capacity in bit/s — what PeeringDB shows.
	Capacities map[orgs.CountryOrg]float64

	// PNI is the hidden private-interconnect capacity in bit/s; the
	// paper could only observe it through the CDN's own interconnects.
	PNI map[orgs.CountryOrg]float64

	// byCountry groups Capacities by country; Capacities must not change
	// after the first per-country query.
	byCountry orgs.CountryIndex[float64]
}

// registryCoverage is the probability an org registers its IXP ports,
// by continent — thin in Africa, dense in Europe (§5.3's caveat).
func registryCoverage(cont string) float64 {
	switch cont {
	case "Europe":
		return 0.85
	case "North America", "Oceania":
		return 0.75
	case "Asia", "South America":
		return 0.65
	case "Africa":
		return 0.25
	default:
		return 0.5
	}
}

// Generate scrapes the registry as of a date.
func (g *Generator) Generate(d dates.Date) *Snapshot {
	snap := &Snapshot{
		Date:       d,
		Capacities: map[orgs.CountryOrg]float64{},
		PNI:        map[orgs.CountryOrg]float64{},
	}
	for _, cc := range g.W.Countries() {
		m := g.W.Market(cc)
		cover := registryCoverage(string(m.Country.Continent()))
		md := g.W.Day(m, d)
		for _, e := range m.ActiveEntries(d) {
			pair := orgs.CountryOrg{Country: cc, Org: e.Org.ID}
			users := md.TrueUsers(e)
			if users <= 0 {
				continue
			}
			// Demand: average bit/s of the org's traffic (volume is
			// bytes/day at intensity TrafficPerUser).
			demand := users * e.TrafficPerUser * 2.0e7 * 8 / 86400

			s := g.root.Derive(chanCap, m.Key(), e.Key)
			headroom := s.Range(2, 4)
			total := demand * headroom

			// Split between PNI and IXP fabric: the bigger the org, the
			// more of its capacity is private. Independent noise on the
			// two sides keeps their relationship loose (Appendix E's
			// R² ≈ 0.47).
			pniShare := 0.40 + 0.25*sizePercentile(users)
			pni := total * pniShare * s.LogNormal(0, 0.95)
			ixpRaw := total * (1 - pniShare) * s.LogNormal(0, 0.45)

			snap.PNI[pair] = pni
			if !s.Bool(cover) {
				continue // org not in the public registry
			}
			if q := quantize(ixpRaw); q > 0 {
				snap.Capacities[pair] = q
			}
		}
	}
	return snap
}

// sizePercentile maps a user count to a rough [0,1] size scale.
func sizePercentile(users float64) float64 {
	switch {
	case users > 1e8:
		return 1
	case users > 1e7:
		return 0.8
	case users > 1e6:
		return 0.6
	case users > 1e5:
		return 0.4
	case users > 1e4:
		return 0.2
	default:
		return 0
	}
}

// quantize converts a raw capacity to a sum of standard port sizes,
// dropping anything below a single 1G port.
func quantize(raw float64) float64 {
	total := 0.0
	for _, size := range []float64{port400, port100, port10G, port1G} {
		n := int(raw / size)
		total += float64(n) * size
		raw -= float64(n) * size
	}
	if raw > 0.5*port1G {
		total += port1G
	}
	return total
}

// CountryCapacities returns one country's per-org public capacities.
func (s *Snapshot) CountryCapacities(country string) map[string]float64 {
	return s.byCountry.Copy(s.Capacities, country)
}

// Pairs returns the registered (country, org) pairs, sorted.
func (s *Snapshot) Pairs() []orgs.CountryOrg {
	return orgs.SortedPairs(s.Capacities)
}
