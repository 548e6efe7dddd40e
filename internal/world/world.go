// Package world builds the synthetic ground-truth Internet that every
// dataset generator observes through its own biased channel. It models,
// per country: the organization market structure (access, mobile,
// converged, enterprise, cloud, CDN and VPN networks with sibling ASes),
// market-share trajectories from 2013 to 2024 (with the regional
// consolidation trends of the paper's §6, explicit mergers like
// Sunrise+UPC, and Latin-American new entrants), per-organization traffic
// intensity, ad exposure, and the Norway VPN funnel of §4.4.
//
// The world is the *truth*; the apnic, cdn, broadband, mlab and ixp
// packages are *measurement processes* over it. The paper's experiments
// then quantify how well one measurement (APNIC) agrees with the others —
// exactly as the original study did against proprietary data.
package world

import (
	"fmt"
	"sort"

	"repro/internal/geo"
	"repro/internal/netdb"
	"repro/internal/orgs"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/syncx"
)

// Config parameterizes world generation.
type Config struct {
	// Seed determines every random choice; the same seed reproduces the
	// same world bit for bit.
	Seed uint64

	// Scenario is the declarative event set applied at construction time.
	// nil selects scenario.Paper() — the byte-pinned baseline encoding
	// exactly the events the source paper documents, so every existing
	// call site builds the same world it always did.
	Scenario *scenario.Scenario
}

// firstYear and lastYear bound the simulated period: the paper's
// 2013–2024, the years of source.SpanFirst..SpanLast. Yearly market
// shares run to lastYear+1, the Jan 1 anchor that ends lastYear.
const (
	firstYear = 2013
	lastYear  = 2024
)

// Entry is one organization's position in one country's market.
type Entry struct {
	Org *orgs.Org

	// Key is the org's precomputed integer derivation key (rng.KeyString
	// of the org ID), so per-day noise streams can be derived without
	// formatting labels in the hot loops.
	Key uint64

	// BaseWeight is the unnormalized market weight before the yearly
	// consolidation tilt; EntryYear/ExitYear bound the org's activity.
	BaseWeight float64
	EntryYear  int
	ExitYear   int    // 0 = never exits
	AbsorbedBy string // org ID gaining this org's users after ExitYear

	// MobileShare is the fraction of the org's users on mobile access.
	// The broadband-subscriber survey (§3.3) only sees the fixed share.
	MobileShare float64

	// AdFactor scales how strongly this org's users are exposed to the
	// ad-impression sampling behind APNIC: ~1 for eyeball networks,
	// near zero for cloud/CDN networks whose "users" are machines.
	AdFactor float64

	// APNICBias is a persistent per-org multiplicative distortion of ad
	// sampling, large in countries where Google's ecosystem is weak —
	// the mechanism behind rank disagreements in Russia or Korea (§4.1).
	APNICBias float64

	// TrafficPerUser is the relative CDN traffic intensity of one user
	// of this org (cloud orgs are orders of magnitude above eyeballs).
	TrafficPerUser float64

	// ReqPerUser is the mean CDN HTTP requests per user per day.
	ReqPerUser float64

	// UAPerUser is the mean distinct User-Agents per user.
	UAPerUser float64

	// BotShare is the fraction of this org's CDN requests that are
	// bot-originated (filtered by the bot-score pipeline, §3.4).
	BotShare float64

	// CDNAffinity is the fraction of the org's user activity that
	// touches the simulated CDN at all (low where the CDN has little
	// local presence or is blocked).
	CDNAffinity float64

	// ASNWeights splits the org's users across its sibling ASes; it has
	// the same length as Org.ASNs and sums to 1.
	ASNWeights []float64

	// shares[y-firstYear] is the org's normalized user share in this
	// entry's market at Jan 1 of year y, for firstYear..lastYear+1.
	shares []float64
}

// Market is one country's organization market.
type Market struct {
	Country geo.Country
	Entries []*Entry // each holds its yearly Jan-1 shares (Entry.shares)

	key   uint64            // precomputed country derivation key
	byOrg map[string]*Entry // org ID → entry index for O(1) Entry lookups

	// shocks is the country's compiled scenario view (nil when the
	// scenario leaves the country untouched) — the seam the measurement
	// packages consult in their hot loops.
	shocks *scenario.CountryShocks

	// active caches ActiveEntries per year (activity only changes at year
	// granularity); winShut caches ShutdownWindowFactor per (day, window).
	// Both are singleflight so concurrent runners share one fill.
	active  syncx.Cache[int, []*Entry]
	winShut syncx.Cache[winKey, float64]
}

type winKey struct{ day, window int }

// Key returns the market's precomputed country derivation key.
func (m *Market) Key() uint64 { return m.key }

// Shocks returns the country's compiled scenario events, or nil when the
// world's scenario does not touch this country. Generators check the nil
// fast path once per call, so unaffected countries pay nothing.
func (m *Market) Shocks() *scenario.CountryShocks { return m.shocks }

// World is the generated ground truth.
type World struct {
	Cfg       Config
	Registry  *orgs.Registry
	DB        *netdb.DB
	VPNOrgID  string             // the Norway VPN provider
	vpnOrigin map[string]float64 // origin-country mix of funneled users

	markets map[string]*Market
	codes   []string // sorted country codes with markets
	nextASN uint32   // global ASN assignment cursor

	// shocks is the compiled scenario the world was built under; never
	// nil (a nil Config.Scenario compiles the paper baseline).
	shocks *scenario.Compiled

	// entrantAway lists scenario-entrant market entries outside their
	// org's home country, in deterministic order, for address allocation:
	// their prefixes are registered at home while their users are local.
	entrantAway []entrantPresence

	events *rng.Stream // real-world event realizations (shutdown days)

	// pairs caches CountryOrgPairs per year: entry/exit is annual, and the
	// VPN origin mix is static, so a whole year shares one slice.
	pairs syncx.Cache[int, []orgs.CountryOrg]
}

// Build generates a world from the configuration. Generation is
// deterministic in cfg.Seed.
func Build(cfg Config) (*World, error) {
	shocks, err := scenario.Compile(cfg.Scenario)
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	root := rng.New(cfg.Seed)
	w := &World{
		Cfg:       cfg,
		Registry:  orgs.NewRegistry(),
		DB:        netdb.NewDB(),
		markets:   map[string]*Market{},
		vpnOrigin: map[string]float64{},
		shocks:    shocks,
	}
	alloc := netdb.NewAllocator()
	w.nextASN = 1000
	w.events = root.Split("events")

	for _, c := range geo.All() {
		m, err := w.buildMarket(c, root.Split("market/"+c.Code))
		if err != nil {
			return nil, err
		}
		m.shocks = shocks.Country(c.Code)
		w.markets[c.Code] = m
		w.codes = append(w.codes, c.Code)
	}
	sort.Strings(w.codes)

	w.applyMergers(root.Split("mergers"))
	w.buildVPN(root.Split("vpn"))
	// Scenario entrants draw from their own split, so the paper scenario
	// (no entrants, zero draws) leaves every other stream untouched.
	if err := w.applyEntrants(root.Split("scenario/entrants")); err != nil {
		return nil, err
	}

	// Precompute the yearly shares (address sizing depends on them) and
	// the per-market indexes: the org→entry map behind Entry lookups and
	// the integer derivation keys the hot loops use instead of labels.
	for _, code := range w.codes {
		m := w.markets[code]
		w.computeShares(m)
		m.key = rng.KeyString(code)
		m.byOrg = make(map[string]*Entry, len(m.Entries))
		for _, e := range m.Entries {
			m.byOrg[e.Org.ID] = e
		}
	}

	// Allocate and announce IP space once org structure is final.
	if err := w.allocateAddresses(alloc); err != nil {
		return nil, err
	}
	return w, nil
}

// MustBuild is Build for tests and examples; it panics on error.
func MustBuild(cfg Config) *World {
	w, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// RoutingDB returns the world's routing database. Its announcements are
// final after Build, so every consumer (log pipelines, samplers,
// benchmarks) shares this one trie read-only.
func (w *World) RoutingDB() *netdb.DB { return w.DB }

// Countries returns the country codes with markets, sorted.
func (w *World) Countries() []string {
	return append([]string(nil), w.codes...)
}

// Market returns one country's market, or nil if unknown.
func (w *World) Market(code string) *Market {
	return w.markets[code]
}

// allocateAddresses hands out a prefix per ASN and announces it with both
// geolocation views. VPN egress blocks are handled in buildVPN.
func (w *World) allocateAddresses(alloc *netdb.Allocator) error {
	for _, code := range w.codes {
		m := w.markets[code]
		for _, e := range m.Entries {
			if e.Org.Home != code {
				continue // announced from the home market only
			}
			peak := w.peakUsers(m, e)
			for i, asn := range e.Org.ASNs {
				// ISPs NAT many users behind each address; 0.3 addresses
				// per user, with blocks capped at /12, keeps the whole
				// 5-billion-user world inside unicast IPv4 space.
				hosts := int64(peak * e.ASNWeights[i] * 0.3)
				if hosts < 256 {
					hosts = 256
				}
				bits := netdb.BitsForHosts(hosts)
				if bits < 12 {
					bits = 12
				}
				p, err := alloc.Alloc(bits)
				if err != nil {
					return fmt.Errorf("world: allocating for %s: %w", e.Org.ID, err)
				}
				if err := w.DB.Announce(p, netdb.Route{
					ASN:               asn,
					RegisteredCountry: code,
					TrueCountry:       code,
				}); err != nil {
					return err
				}
			}
		}
	}
	// Scenario-entrant away markets: like VPN egress blocks, the prefix
	// registers to the org's home country while the users are local —
	// the Starlink-style geolocation bias.
	for _, pr := range w.entrantAway {
		p, err := alloc.Alloc(18)
		if err != nil {
			return err
		}
		if err := w.DB.Announce(p, netdb.Route{
			ASN:               pr.entry.Org.ASNs[0],
			RegisteredCountry: pr.entry.Org.Home,
			TrueCountry:       pr.country,
		}); err != nil {
			return err
		}
	}
	// VPN egress blocks: registered in the hub, users elsewhere.
	if w.VPNOrgID != "" {
		vpnOrg, _ := w.Registry.ByID(w.VPNOrgID)
		hub := vpnOrg.Home
		for _, origin := range sortedKeys(w.vpnOrigin) {
			p, err := alloc.Alloc(20)
			if err != nil {
				return err
			}
			if err := w.DB.Announce(p, netdb.Route{
				ASN:               vpnOrg.ASNs[0],
				RegisteredCountry: hub,
				TrueCountry:       origin,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// peakUsers returns the org's maximum user count across the simulated
// years, used to size its address blocks.
func (w *World) peakUsers(m *Market, e *Entry) float64 {
	peak := 0.0
	for y := firstYear; y <= lastYear; y++ {
		u := m.Country.InternetUsers(y) * e.shares[y-firstYear]
		if u > peak {
			peak = u
		}
	}
	return peak
}

// entrantPresence is one scenario-entrant entry outside its home market.
type entrantPresence struct {
	country string
	entry   *Entry
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
