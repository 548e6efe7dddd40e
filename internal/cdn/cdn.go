// Package cdn simulates the paper's proprietary ANONCDN datasets (§3.4):
// HTTP request logs sampled uniformly at 1% across all PoPs, labelled by a
// bot-score pipeline, aggregated to per-(country, org) unique User-Agent
// counts and outbound traffic volume.
//
// The CDN observes the same ground-truth world as the APNIC simulator but
// through a different channel with its own documented biases:
//
//   - True geolocation: the CDN's internal tool resolves VPN egress IPs to
//     the user's actual country (§4.4, Norway), so the VPN org is small in
//     the hub country and spread across origin countries.
//   - Short observation window: a snapshot reflects a single day, so
//     shutdown days (Myanmar) move the numbers that APNIC's 60-day window
//     smooths away.
//   - Bot skew: cloud and enterprise networks carry disproportionate bot
//     traffic, filtered by the score >= 50 rule with a small error rate.
//   - Coverage: pairs with too few sampled requests are invisible, and
//     networks that barely touch the CDN (censored countries) are missed
//     entirely — the source of APNIC-only pairs.
//   - Extra "countries": Tor exits are reported under the pseudo country
//     code T1, and countries Google bans ads in (North Korea) appear in
//     the CDN data but never in APNIC's.
package cdn

import (
	"math"
	"sort"

	"repro/internal/dates"
	"repro/internal/orgs"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/world"
)

// Defaults mirroring the paper's description.
const (
	DefaultSamplingRate = 0.01 // 1% uniform request sampling
	DefaultBotThreshold = 50   // scores >= 50 are treated as human
	// minSampledReq is the visibility floor for a (country, org): fewer
	// kept sampled requests and the pair is absent from the snapshot.
	minSampledReq = 10
	// TorCountry is ANONCDN's pseudo country code for Tor exits.
	TorCountry = "T1"
	// TorOrg is the synthetic org ID carrying Tor exit traffic.
	TorOrg = "T1-TOR-00"
	// bytesPerUserDay is the baseline outbound CDN bytes per user-day at
	// TrafficPerUser == 1.
	bytesPerUserDay = 2.0e7
)

// Generator produces daily CDN snapshots over a world.
type Generator struct {
	W *world.World

	SamplingRate float64
	BotThreshold int

	root *rng.Stream
}

// Derivation channel keys for the generator's noise streams; hot loops
// derive per-(country, org, day) streams as integer tuples instead of
// formatted labels.
const (
	chanNoise uint64 = iota + 1
	chanRequests
	chanTor
)

// New returns a generator with the paper defaults.
func New(w *world.World, seed uint64) *Generator {
	return &Generator{
		W:            w,
		SamplingRate: DefaultSamplingRate,
		BotThreshold: DefaultBotThreshold,
		root:         rng.New(seed).Split("cdn"),
	}
}

// OrgStats is what the CDN reports for one (country, org) pair on one day.
type OrgStats struct {
	SampledRequests int64   // sampled requests classified human
	FilteredBots    int64   // sampled requests dropped by the bot filter
	UserAgents      float64 // estimated distinct human User-Agents
	Bytes           float64 // outbound traffic volume (total, not sampled)
}

// Snapshot is one day of aggregated CDN logs. Stats must not change
// after the first per-country query.
type Snapshot struct {
	Date  dates.Date
	Stats map[orgs.CountryOrg]OrgStats

	byCountry orgs.CountryIndex[OrgStats] // Stats grouped by country
}

// entryFor resolves the simulation parameters for a (country, org) pair:
// the home-market entry, also used for the VPN org's foreign appearances.
func (g *Generator) entryFor(pair orgs.CountryOrg) *world.Entry {
	if e := g.W.Entry(pair.Country, pair.Org); e != nil {
		return e
	}
	o, ok := g.W.Registry.ByID(pair.Org)
	if !ok {
		return nil
	}
	return g.W.Entry(o.Home, pair.Org)
}

// Generate produces the snapshot for one day. Snapshots are independent
// and deterministic in (world, seed, date).
func (g *Generator) Generate(d dates.Date) *Snapshot {
	pairs := g.W.CountryOrgPairs(d)
	snap := &Snapshot{Date: d, Stats: make(map[orgs.CountryOrg]OrgStats, len(pairs)+1)}
	for _, pair := range pairs {
		e := g.entryFor(pair)
		if e == nil {
			continue
		}
		st, ok := g.pairStats(pair, e, d)
		if ok {
			snap.Stats[pair] = st
		}
	}
	g.addTor(snap, d)
	return snap
}

func (g *Generator) pairStats(pair orgs.CountryOrg, e *world.Entry, d dates.Date) (OrgStats, bool) {
	users := g.W.CDNUsers(pair.Country, pair.Org, d)
	if users <= 0 {
		return OrgStats{}, false
	}
	m := g.W.Market(pair.Country)
	c := m.Country
	shut := g.W.ShutdownFactor(pair.Country, d)
	day := uint64(int64(d.DayNumber()))

	// Day-level activity noise: larger where the network environment is
	// unstable (low freedom, volatile ad/market conditions).
	sigma := 0.03 + c.AdVolatility/3
	if c.Freedom < 30 {
		sigma += 0.10
	}
	ns := g.root.Derive(chanNoise, m.Key(), e.Key, day)
	noise := ns.LogNormal(0, sigma)

	activity := users * e.CDNAffinity * noise * shut

	humanMean := activity * e.ReqPerUser * g.SamplingRate
	botMean := 0.0
	if e.BotShare > 0 && e.BotShare < 1 {
		botMean = humanMean * e.BotShare / (1 - e.BotShare)
	}
	s := g.root.Derive(chanRequests, m.Key(), e.Key, day)
	sampledHuman := s.Poisson(humanMean)
	sampledBot := s.Poisson(botMean)

	// Bot-score filtering: requests scoring below the threshold are
	// dropped. At the paper's threshold of 50 the classifier keeps ~97%
	// of humans and leaks ~3% of bots; threshold 0 disables filtering,
	// higher thresholds trade human recall for bot rejection.
	keepHuman, leakBot := botFilterRates(g.BotThreshold)
	keptHuman := s.Binomial(sampledHuman, keepHuman)
	leakedBot := s.Binomial(sampledBot, leakBot)
	human := keptHuman + leakedBot
	filtered := sampledHuman + sampledBot - human

	if human < minSampledReq {
		return OrgStats{}, false
	}

	// Distinct User-Agents among the sampled human requests: each active
	// user is caught with probability 1−e^{−λ} where λ is their expected
	// sampled request count.
	active := users * e.CDNAffinity * shut
	var uas float64
	if active > 0 {
		lambda := float64(keptHuman) / active
		uas = active * (1 - math.Exp(-lambda)) * (0.7 + 0.3*e.UAPerUser)
	}

	// Reported volume scales with the requests that survive the bot
	// filter: with filtering off, bot traffic inflates bot-heavy orgs'
	// volumes; an aggressive filter deflates human-heavy ones.
	volFactor := 1.0
	if sampledHuman > 0 {
		volFactor = float64(human) / float64(sampledHuman)
	}
	volume := activity * e.TrafficPerUser * bytesPerUserDay * volFactor
	return OrgStats{
		SampledRequests: human,
		FilteredBots:    filtered,
		UserAgents:      uas,
		Bytes:           volume,
	}, true
}

// botFilterRates maps a bot-score threshold to (human-kept, bot-leaked)
// probabilities. Threshold 0 disables filtering entirely.
func botFilterRates(threshold int) (keepHuman, leakBot float64) {
	switch {
	case threshold <= 0:
		return 1, 1
	case threshold < 50:
		// Lenient: keeps nearly all humans, leaks more bots.
		return 0.995, 0.10
	case threshold < 80:
		// The paper's operating point.
		return 0.97, 0.03
	default:
		// Aggressive: rejects bots hard but drops real users too.
		return 0.85, 0.005
	}
}

// addTor injects the Tor pseudo-country the paper notes the CDN reports
// under country code T1.
func (g *Generator) addTor(snap *Snapshot, d dates.Date) {
	s := g.root.Derive(chanTor, uint64(int64(d.DayNumber())))
	users := 1.5e6 * s.LogNormal(0, 0.05)
	req := s.Poisson(users * 20 * g.SamplingRate)
	snap.Stats[orgs.CountryOrg{Country: TorCountry, Org: TorOrg}] = OrgStats{
		SampledRequests: req,
		UserAgents:      users * 0.3,
		Bytes:           users * 0.5 * bytesPerUserDay,
	}
}

// Countries returns the sorted country codes in the snapshot.
func (s *Snapshot) Countries() []string {
	seen := map[string]bool{}
	for k := range s.Stats {
		seen[k.Country] = true
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// UserAgents returns the raw UA counts keyed by (country, org).
func (s *Snapshot) UserAgents() map[orgs.CountryOrg]float64 {
	out := make(map[orgs.CountryOrg]float64, len(s.Stats))
	for k, v := range s.Stats {
		out[k] = v.UserAgents
	}
	return out
}

// Volumes returns the traffic volumes keyed by (country, org).
func (s *Snapshot) Volumes() map[orgs.CountryOrg]float64 {
	out := make(map[orgs.CountryOrg]float64, len(s.Stats))
	for k, v := range s.Stats {
		out[k] = v.Bytes
	}
	return out
}

// UAShares returns one country's per-org share of User-Agents, summing to
// 1 — the form the paper receives the proprietary data in ("we are
// provided with the percentages for each (country, org)").
func (s *Snapshot) UAShares(country string) map[string]float64 {
	return s.shares(country, func(st OrgStats) float64 { return st.UserAgents })
}

// VolumeShares returns one country's per-org share of traffic volume.
func (s *Snapshot) VolumeShares(country string) map[string]float64 {
	return s.shares(country, func(st OrgStats) float64 { return st.Bytes })
}

// shares returns a fresh, caller-owned map of one country's per-org
// metric, normalized to sum to 1.
func (s *Snapshot) shares(country string, f func(OrgStats) float64) map[string]float64 {
	row := s.byCountry.Row(s.Stats, country)
	out := make(map[string]float64, len(row))
	for _, ov := range row {
		out[ov.Org] = f(ov.Value)
	}
	// NormalizeMap sums in sorted key order so map iteration cannot leak
	// into the shares' last bits.
	return stats.NormalizeMap(out)
}
