// Package apnic simulates the APNIC per-AS User Population dataset (§3.2):
// a daily report of (Rank, AS, AS Name, CC, Estimated Users, % of Country,
// % of Internet, Samples) rows derived from non-targeted ad impressions
// normalized by ITU per-country Internet-user estimates.
//
// The measurement process modelled here follows the paper's description
// and the biases it documents:
//
//   - Samples are ad impressions: proportional to each org's ad-reachable
//     users (country ad reach × org ad factor × a persistent per-org bias),
//     with Poisson counting noise and weekly ad-serving volatility.
//   - IP-geolocated attribution: VPN egress users count toward the hub
//     country (Norway), not their origin.
//   - Estimated Users = country ITU estimate × the org's share of the
//     country's samples — so an ITU anomaly moves every AS in the country.
//   - Rows with fewer than MinSamples (empirically ≥120 in the paper,
//     §4.2) are dropped, which is why APNIC misses the long tail of tiny
//     networks the CDN still observes.
//   - Event shocks: scenario events (internal/scenario) suppress
//     sampling — the paper world's Russia ads pause (March 2022) and
//     Myanmar's government shutdown days, or any counterfactual shock a
//     non-paper scenario declares (CGNAT rollouts, other ad-market
//     exits). The generator reads them through the world's per-market
//     compiled view; nothing country-specific is hard-coded here.
package apnic

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dates"
	"repro/internal/itu"
	"repro/internal/orgs"
	"repro/internal/rng"
	"repro/internal/syncx"
	"repro/internal/world"
)

// sampleRate is the mean ad impressions per ad-reachable user per
// 60-day window. Calibrated against the paper's Table 2, where India's
// largest AS shows ≈278M estimated users and ≈8.4M window samples.
const sampleRate = 0.034

// DefaultMinSamples is the empirical inclusion floor the paper observed.
const DefaultMinSamples = 120

// Generator produces daily APNIC-style reports over a world.
type Generator struct {
	W   *world.World
	ITU *itu.Estimator

	// MinSamples is the per-AS inclusion floor.
	MinSamples int64
	// Window is the moving-window length in days (APNIC uses 60).
	Window int

	root *rng.Stream

	// asName caches the "<Org Name> (AS<n>)" display strings so report
	// generation does not re-format one per row per day.
	asName map[uint32]string

	// Demand-driven memoization of the per-(country, day) scans. The
	// stability analysis (Figure 8's eight curves and their 60-day
	// best-day windows) and the 2024 elasticity sweep (Figure 7) hit the
	// same (country, day) pairs thousands of times across runners; both
	// scans are pure functions of (seed, country, day), so each pair is
	// computed once and shared. Sharded singleflight keeps concurrent
	// runners from serializing on one cache mutex. Configuration fields
	// (MinSamples, Window) must be set before first use — memoized values
	// are not invalidated.
	totalsMemo *syncx.Sharded[ccDay, countryTotals]
	sharesMemo *syncx.Sharded[ccDay, map[string]float64]

	// noiseMemo holds the scans' window noise: one vector per (country,
	// year, week), aligned with the market's ActiveEntries for that year.
	// The noise is drawn per (org, week), so the seven days of a week
	// share it; a best-day window of 60 days draws each vector once
	// instead of seven times. Generate and DayCounts draw their noise
	// inline and never fill it, so generators that only serve reports
	// hold nothing here.
	noiseMemo *syncx.Sharded[ccWeek, []float64]

	noiseFills atomic.Int64 // window-noise vectors drawn (memo fills)

	totalsScans atomic.Int64 // uncached CountryTotals scans (memo fills)
	sharesScans atomic.Int64 // uncached CountryOrgShares scans (memo fills)
}

// ccDay keys the per-(country, day) memo caches.
type ccDay struct {
	cc  string
	day int // dates.Date.DayNumber()
}

// ccWeek keys the window-noise memo. The year is part of the key
// because a noise week can span Dec 31 and Jan 1, and the active entries
// the vector is aligned with change by calendar year.
type ccWeek struct {
	cc   string
	year int
	week int // dates.Date.DayNumber() / 7
}

// countryTotals is the memoized CountryTotals result.
type countryTotals struct {
	samples int64
	users   float64
}

// hashCCDay spreads (country, day) keys across memo shards.
func hashCCDay(k ccDay) uint64 {
	return rng.KeyString(k.cc) ^ (uint64(int64(k.day)) * 0x9e3779b97f4a7c15)
}

// hashCCWeek spreads (country, year, week) keys across memo shards.
func hashCCWeek(k ccWeek) uint64 {
	return rng.KeyString(k.cc) ^ (uint64(int64(k.week)) * 0x9e3779b97f4a7c15) ^ uint64(int64(k.year))
}

// Derivation channel keys for the generator's noise streams. Hot loops
// derive per-(country, org, time) streams as integer tuples —
// (channel, countryKey, orgKey, timeKey) — instead of formatted labels.
const (
	chanVolatility uint64 = iota + 1
	chanPoisson
)

// New returns a generator with the paper-calibrated defaults.
func New(w *world.World, ituEst *itu.Estimator, seed uint64) *Generator {
	g := &Generator{
		W:          w,
		ITU:        ituEst,
		MinSamples: DefaultMinSamples,
		Window:     60,
		root:       rng.New(seed).Split("apnic"),
		asName:     map[uint32]string{},
		totalsMemo: syncx.NewSharded[ccDay, countryTotals](hashCCDay),
		sharesMemo: syncx.NewSharded[ccDay, map[string]float64](hashCCDay),
		noiseMemo:  syncx.NewSharded[ccWeek, []float64](hashCCWeek),
	}
	for _, o := range w.Registry.All() {
		for _, asn := range o.ASNs {
			g.asName[asn] = fmt.Sprintf("%s (AS%d)", o.Name, asn)
		}
	}
	return g
}

// Row is one line of the daily report.
type Row struct {
	Rank        int     // 1-based rank by estimated users (global)
	ASN         uint32  // autonomous system number
	ASName      string  // display name
	CC          string  // ISO country code
	Users       float64 // estimated users of this AS in this country
	PctCountry  float64 // percent of the country's Internet users
	PctInternet float64 // percent of the world's Internet users
	Samples     int64   // ad impressions in the window
}

// Report is one day's dataset.
type Report struct {
	Date   dates.Date
	Window int
	Rows   []Row

	// aggMu guards the lazily-cached OrgUsers aggregation below. Reports
	// are shared read-only between concurrent experiment runners, each of
	// which needs the same (country, org) aggregation.
	aggMu    sync.Mutex
	aggReg   *orgs.Registry
	aggUsers map[orgs.CountryOrg]float64
	aggIndex *orgs.CountryIndex[float64] // aggUsers by country
}

// apnicDay is one market resolved on one date: every factor of an org's
// expected sample count that is the same for all orgs in the country
// that day, so the per-entry loops only draw noise.
type apnicDay struct {
	m     *world.Market
	users world.MarketDay
	reach float64 // adReach
	// shut is the fraction of window sampling surviving government
	// shutdowns: the window-average of the world's shared shutdown
	// realization — APNIC's 60-day smoothing blunts individual days.
	shut float64
	week uint64 // windowNoise's derivation key
	day  uint64 // the Poisson draw's derivation key
}

// resolve resolves a market on a date.
func (g *Generator) resolve(m *world.Market, d dates.Date) apnicDay {
	dn := d.DayNumber()
	return apnicDay{
		m:     m,
		users: g.W.Day(m, d),
		reach: g.adReach(m, dn),
		shut:  g.W.ShutdownWindowFactor(m.Country.Code, d, g.Window),
		week:  uint64(int64(dn / 7)),
		day:   uint64(int64(dn)),
	}
}

// adReach returns the effective country ad reach on a day: the geo
// registry's baseline times whatever sampling shocks the world's scenario
// has active (ad-market exits, CGNAT rollouts). The paper scenario
// compiles Russia's 2022-03-10 ads pause to a single 0.25 step, so this
// computes exactly the `reach *= 0.25` the pre-scenario code did.
func (g *Generator) adReach(m *world.Market, dayNumber int) float64 {
	reach := m.Country.AdReach
	if sh := m.Shocks(); sh != nil && sh.HasSampling() {
		reach *= sh.SamplingFactor(dayNumber)
	}
	return reach
}

// windowNoise returns the residual multiplicative volatility of the
// 60-day-averaged sample count for an org, drawn per (org, week) so that
// consecutive days share most of their window.
func (g *Generator) windowNoise(ad *apnicDay, e *world.Entry) float64 {
	s := g.root.Derive(chanVolatility, ad.m.Key(), e.Key, ad.week)
	return s.LogNormal(0, ad.m.Country.AdVolatility)
}

// weekNoise returns the window noise of every entry in active (the
// market's ActiveEntries on d), drawn once per (country, year, week) and
// shared by every later scan of the same week. The slice is shared:
// callers must not modify it.
func (g *Generator) weekNoise(ad *apnicDay, d dates.Date, active []*world.Entry) []float64 {
	key := ccWeek{cc: ad.m.Country.Code, year: d.Year, week: d.DayNumber() / 7}
	return g.noiseMemo.Get(key, func() []float64 {
		g.noiseFills.Add(1)
		noise := make([]float64, len(active))
		for i, e := range active {
			noise[i] = g.windowNoise(ad, e)
		}
		return noise
	})
}

// orgSamples returns the expected-plus-noise ad-impression count for an
// entry of a resolved market-day, before the per-AS split and inclusion
// floor, with its window noise drawn inline — the allocation-free inner
// loop of Generate.
func (g *Generator) orgSamples(ad *apnicDay, e *world.Entry) int64 {
	return g.orgSamplesNoise(ad, e, g.windowNoise(ad, e))
}

// orgSamplesNoise is orgSamples with the entry's window noise given. The
// factor order of mean is pinned: reordering the product changes its
// last bits, and with them the Poisson realizations.
func (g *Generator) orgSamplesNoise(ad *apnicDay, e *world.Entry, noise float64) int64 {
	mean := ad.users.APNICUsers(e) * ad.reach * e.AdFactor * e.APNICBias *
		sampleRate * noise * ad.shut
	if mean <= 0 {
		return 0
	}
	s := g.root.Derive(chanPoisson, ad.m.Key(), e.Key, ad.day)
	return s.Poisson(mean)
}

// asnSplit splits an org's sample total across its sibling ASes by their
// fixed weights; the last AS takes the rounding remainder. It calls fn
// once per AS, in AS order, with the AS's share (possibly <= 0).
func asnSplit(e *world.Entry, total int64, fn func(asn uint32, share int64)) {
	var assigned int64
	for i, asn := range e.Org.ASNs {
		var share int64
		if i == len(e.Org.ASNs)-1 {
			share = total - assigned
		} else {
			share = int64(float64(total) * e.ASNWeights[i])
		}
		assigned += share
		fn(asn, share)
	}
}

// ASCount is one (country, AS) raw window-sample count before the
// inclusion floor: the exchange currency between the batch generator and
// the streaming rolling estimator. Both feed the same counts into
// AssembleReport, which is what makes streaming estimates converge
// *exactly* to batch reports once a day's stream is drained.
type ASCount struct {
	CC      string
	ASN     uint32
	Samples int64
}

// DayCounts produces every per-AS raw sample count for one day: the org
// totals split across sibling ASes by their fixed weights (the last AS
// takes the rounding remainder), with no inclusion floor applied. Zero
// shares are omitted — they carry no impressions and the floor (>= 1
// everywhere in this repo) would drop them anyway.
func (g *Generator) DayCounts(d dates.Date) []ASCount {
	counts := make([]ASCount, 0, 4096)
	for _, code := range g.W.Countries() {
		m := g.W.Market(code)
		ad := g.resolve(m, d)
		for _, e := range m.ActiveEntries(d) {
			total := g.orgSamples(&ad, e)
			if total == 0 {
				continue
			}
			asnSplit(e, total, func(asn uint32, share int64) {
				if share > 0 {
					counts = append(counts, ASCount{CC: code, ASN: asn, Samples: share})
				}
			})
		}
	}
	return counts
}

// AssembleReport builds one day's report from raw per-AS counts: the
// inclusion floor, per-country totals, ITU scaling, the rank order. The
// result is independent of the order of counts (the final sort is a
// total order over distinct (CC, ASN) rows), so a streaming accumulator
// that reassembles the same multiset of counts in any order produces a
// report equal to the batch generator's.
//
// Counts must not repeat a (CC, ASN) pair; DayCounts never does, and the
// rolling estimator aggregates per pair before assembling.
func (g *Generator) AssembleReport(d dates.Date, counts []ASCount) *Report {
	rep := &Report{Date: d, Window: g.Window}

	countrySamples := make(map[string]int64, 256)
	for _, c := range counts {
		if c.Samples < g.MinSamples {
			continue
		}
		countrySamples[c.CC] += c.Samples
	}

	worldITU := g.ITU.WorldTotal(d)
	// Counts arrive grouped by country; memoize the per-country ITU
	// estimate rather than re-deriving it once per row.
	ituByCC := make(map[string]float64, len(countrySamples))
	rep.Rows = make([]Row, 0, len(counts))
	for _, r := range counts {
		if r.Samples < g.MinSamples {
			continue
		}
		ctotal := countrySamples[r.CC]
		if ctotal == 0 {
			continue
		}
		ituUsers, ok := ituByCC[r.CC]
		if !ok {
			ituUsers = g.ITU.Users(r.CC, d)
			ituByCC[r.CC] = ituUsers
		}
		users := float64(r.Samples) / float64(ctotal) * ituUsers
		rep.Rows = append(rep.Rows, Row{
			ASN:         r.ASN,
			ASName:      g.asName[r.ASN],
			CC:          r.CC,
			Users:       users,
			PctCountry:  100 * float64(r.Samples) / float64(ctotal),
			PctInternet: 100 * users / worldITU,
			Samples:     r.Samples,
		})
	}

	sort.Slice(rep.Rows, func(i, j int) bool {
		if rep.Rows[i].Users != rep.Rows[j].Users {
			return rep.Rows[i].Users > rep.Rows[j].Users
		}
		if rep.Rows[i].ASN != rep.Rows[j].ASN {
			return rep.Rows[i].ASN < rep.Rows[j].ASN
		}
		// (Users, ASN) ties can only cross countries (a (CC, ASN) pair
		// appears at most once); breaking them makes the order a total
		// one, independent of the counts' arrival order.
		return rep.Rows[i].CC < rep.Rows[j].CC
	})
	for i := range rep.Rows {
		rep.Rows[i].Rank = i + 1
	}
	return rep
}

// Generate produces the report for one day. Reports are independent: the
// same (world, seed, date) always yields the same report regardless of
// what was generated before.
func (g *Generator) Generate(d dates.Date) *Report {
	return g.AssembleReport(d, g.DayCounts(d))
}

// OrgUsers aggregates a report's estimated users to (country, org) pairs
// using the registry (§3.1). The result is freshly allocated; callers that
// only read should prefer OrgUsersCached.
func (r *Report) OrgUsers(reg *orgs.Registry) map[orgs.CountryOrg]float64 {
	byAS := make(map[orgs.CountryAS]float64, len(r.Rows))
	for _, row := range r.Rows {
		byAS[orgs.CountryAS{Country: row.CC, ASN: row.ASN}] += row.Users
	}
	return reg.Aggregate(byAS)
}

// OrgUsersCached returns the OrgUsers aggregation, computing it at most
// once per (report, registry) — experiment runners all aggregate the same
// cached day report, and re-running the full aggregation per runner (or
// per country, as TopOrgs used to) dominated their cost. The returned map
// is shared: callers must not modify it.
func (r *Report) OrgUsersCached(reg *orgs.Registry) map[orgs.CountryOrg]float64 {
	users, _ := r.aggregation(reg)
	return users
}

// CountryOrgUsers returns one country's org→estimated-users map from the
// cached aggregation. The aggregation is indexed by country once per
// (report, registry), so per-country loops read one row each instead of
// scanning every pair. The map is fresh and caller-owned.
func (r *Report) CountryOrgUsers(reg *orgs.Registry, country string) map[string]float64 {
	users, byCountry := r.aggregation(reg)
	return byCountry.Copy(users, country)
}

// aggregation returns the cached OrgUsers aggregation and its country
// index, (re)computing both when the registry changes.
func (r *Report) aggregation(reg *orgs.Registry) (map[orgs.CountryOrg]float64, *orgs.CountryIndex[float64]) {
	r.aggMu.Lock()
	defer r.aggMu.Unlock()
	if r.aggUsers == nil || r.aggReg != reg {
		r.aggUsers = r.OrgUsers(reg)
		r.aggReg = reg
		r.aggIndex = new(orgs.CountryIndex[float64])
	}
	return r.aggUsers, r.aggIndex
}

// OrgSamples aggregates a report's raw samples to (country, org) pairs.
func (r *Report) OrgSamples(reg *orgs.Registry) map[orgs.CountryOrg]float64 {
	byAS := make(map[orgs.CountryAS]float64, len(r.Rows))
	for _, row := range r.Rows {
		byAS[orgs.CountryAS{Country: row.CC, ASN: row.ASN}] += float64(row.Samples)
	}
	return reg.Aggregate(byAS)
}

// TopOrgs returns a country's org IDs ordered by estimated users,
// descending. It reads the cached aggregation's country index, so looping
// it over every country costs one OrgUsers pass, not one per country.
func (r *Report) TopOrgs(reg *orgs.Registry, country string) []string {
	users := r.CountryOrgUsers(reg, country)
	ids := make([]string, 0, len(users))
	for id := range users {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if users[ids[i]] != users[ids[j]] {
			return users[ids[i]] > users[ids[j]]
		}
		return ids[i] < ids[j]
	})
	return ids
}

// CountryTotals computes one country's total window samples and ITU-scaled
// estimated users on a date without generating the full world report.
// The best-day selection rule (§5.1.2) scans 60 days per country, and this
// keeps that scan cheap. Totals include only ASes above the inclusion
// floor, like the published dataset. Results are memoized per
// (country, day): the scan is a pure function of (seed, country, day), so
// repeat lookups — Figure 7's weekly 2024 sweep, Figure 8's best-day
// windows, the artifact checks — share one computation.
func (g *Generator) CountryTotals(country string, d dates.Date) (samples int64, users float64) {
	t := g.totalsMemo.Get(ccDay{country, d.DayNumber()}, func() countryTotals {
		g.totalsScans.Add(1)
		s, u := g.countryTotalsScan(country, d)
		return countryTotals{samples: s, users: u}
	})
	return t.samples, t.users
}

// countryTotalsScan is the uncached CountryTotals computation.
func (g *Generator) countryTotalsScan(country string, d dates.Date) (samples int64, users float64) {
	m := g.W.Market(country)
	if m == nil {
		return 0, 0
	}
	ad := g.resolve(m, d)
	active := m.ActiveEntries(d)
	noise := g.weekNoise(&ad, d, active)
	for i, e := range active {
		total := g.orgSamplesNoise(&ad, e, noise[i])
		if total == 0 {
			continue
		}
		asnSplit(e, total, func(_ uint32, share int64) {
			if share >= g.MinSamples {
				samples += share
			}
		})
	}
	if samples > 0 {
		users = g.ITU.Users(country, d)
	}
	return samples, users
}

// CountryOrgShares computes one country's per-org share of estimated
// users on a date without generating the full world report: shares within
// a country equal the org's share of the country's included samples.
// Orgs entirely below the inclusion floor are absent, like in the
// published dataset.
//
// Results are memoized per (country, day) and the returned map is shared
// between callers: treat it as read-only. Every call site in this
// repository only reads (alignment, K-S, rendering); a caller that needs
// to mutate must copy first.
func (g *Generator) CountryOrgShares(country string, d dates.Date) map[string]float64 {
	return g.sharesMemo.Get(ccDay{country, d.DayNumber()}, func() map[string]float64 {
		g.sharesScans.Add(1)
		return g.countryOrgSharesScan(country, d)
	})
}

// countryOrgSharesScan is the uncached CountryOrgShares computation.
func (g *Generator) countryOrgSharesScan(country string, d dates.Date) map[string]float64 {
	m := g.W.Market(country)
	if m == nil {
		return nil
	}
	ad := g.resolve(m, d)
	active := m.ActiveEntries(d)
	noise := g.weekNoise(&ad, d, active)
	out := map[string]float64{}
	var total int64
	for i, e := range active {
		orgTotal := g.orgSamplesNoise(&ad, e, noise[i])
		if orgTotal == 0 {
			continue
		}
		var included int64
		asnSplit(e, orgTotal, func(_ uint32, share int64) {
			if share >= g.MinSamples {
				included += share
			}
		})
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
