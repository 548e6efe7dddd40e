// Package scenario is the declarative shock model behind world
// construction. The paper's §4.4 reliability arguments rest on three
// real-world events — Google pausing ads in Russia (March 2022), the
// France ITU revision spike (the week of 2019-05-13), and Myanmar's
// shutdown regime — which used to live as constants inside the apnic, itu
// and world packages. This package promotes them to *data*: a Scenario is
// a typed list of events applied to any seed at world-construction time,
// so the repro can stress the reliability checklist against shocks the
// paper never observed (CGNAT rollouts, VPN-adoption surges, a
// Starlink-style multi-country entrant) as well as the three it did.
//
// Paper() is the byte-pinned baseline: building a world with it (or with a
// nil scenario, which defaults to it) reproduces the pre-scenario worlds
// bit for bit. Every other scenario perturbs the geo registry's baseline
// fields; it never replaces them.
package scenario

import (
	"fmt"
	"regexp"

	"repro/internal/dates"
	"repro/internal/geo"
)

// Scenario is one named bundle of typed world events. The zero value is a
// valid empty scenario (a world with *no* special events — note that this
// is not the paper's world; use Paper() for that).
type Scenario struct {
	Name  string
	Notes string // free-form provenance / description

	// AdExits suppress ad sampling in a country from a date on — the
	// mechanism behind the Russia ads pause (§3.2, §4.4).
	AdExits []AdMarketExit

	// Spikes are guaranteed one-week registry anomalies in a country's
	// ITU series — the France 2019-05-13 event of Figure 1.
	Spikes []RegistrySpike

	// Shutdowns override a country's baseline shutdown rate during a date
	// range — regime changes on top of geo.Country.ShutdownRate.
	Shutdowns []ShutdownRegime

	// CGNAT models carrier-grade NAT rollouts: true users are unchanged
	// but per-user ad sampling collapses (many users behind few
	// addresses), inflating the users-per-sample ratio the elasticity
	// check watches.
	CGNAT []CGNATRollout

	// VPNSurges scale the Norway-style VPN funnel from a date on.
	VPNSurges []VPNSurge

	// Mergers force (or re-weight) the market-consolidation event in a
	// country — the Sunrise+UPC and Vodafone+Unitymedia analogues.
	Mergers []MergerOverride

	// Entrants inject new multi-country access orgs (a Starlink-style
	// operator: one org, prefixes registered at home, users everywhere).
	Entrants []Entrant
}

// AdMarketExit suppresses ad sampling in one country from a date on.
type AdMarketExit struct {
	Country string
	From    dates.Date
	// Factor multiplies the country's effective ad reach from From on
	// (0.25 = three quarters of impressions gone). Must be in (0, 1].
	Factor float64
}

// RegistrySpike is a guaranteed anomaly week in a country's ITU series.
type RegistrySpike struct {
	Country string
	Week    dates.Date // any day inside the spike week
	Factor  float64    // multiplier on the weekly estimate, in (1, 2]
}

// ShutdownRegime overrides a country's daily shutdown probability during
// [From, To]. A zero To leaves the regime open-ended.
type ShutdownRegime struct {
	Country string
	From    dates.Date
	To      dates.Date // zero = open-ended
	Rate    float64    // per-day shutdown probability, in [0, 1]
}

// CGNATRollout collapses per-user sampling in one country from a date on.
type CGNATRollout struct {
	Country string
	From    dates.Date
	// Factor multiplies per-user ad sampling from From on (0.05 = a
	// twentyfold user-per-sample inflation). Must be in (0, 1].
	Factor float64
}

// VPNSurge scales the VPN funnel total from a date on.
type VPNSurge struct {
	From   dates.Date
	Factor float64 // multiplier on VPNFunnelTotal, in (0, 10]
}

// MergerOverride pins the consolidation event for one country: with
// Probability 1 the merger is guaranteed in Year (the paper's CH and DE
// events); fractional probabilities re-weight the regional wave.
type MergerOverride struct {
	Country     string
	Year        int
	Probability float64
}

// Entrant is a new access org entering Home plus Countries in EntryYear.
// Its prefixes are registered in Home while its users are in each presence
// country — the satellite-operator geolocation bias, same shape as the VPN
// funnel but per-market.
type Entrant struct {
	Name        string   // org ID and display name; [A-Z0-9-], >= 3 chars
	Home        string   // home country (registration + headquarters)
	Countries   []string // additional presence countries
	EntryYear   int
	Weight      float64 // unnormalized market weight per presence country
	MobileShare float64 // fraction of users on mobile access, in [0, 1]
}

// entrantName keeps entrant org IDs out of the generated "CC-TAG-NN"
// namespace and safe for use in URLs and derivation labels.
var entrantName = regexp.MustCompile(`^[A-Z][A-Z0-9-]{2,31}$`)

// Validate checks every event against the geo registry and the bounds a
// world build assumes. Overridden per-country values are revalidated
// through geo.Country.Validate, so a scenario cannot smuggle in a rate the
// static registry itself would reject.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	country := func(kind, cc string) (geo.Country, error) {
		c, ok := geo.ByCode(cc)
		if !ok {
			return geo.Country{}, fmt.Errorf("scenario %s: %s: unknown country %q", s.Name, kind, cc)
		}
		return c, nil
	}
	for _, e := range s.AdExits {
		if _, err := country("ad-exit", e.Country); err != nil {
			return err
		}
		if !e.From.Valid() {
			return fmt.Errorf("scenario %s: ad-exit %s: invalid date %v", s.Name, e.Country, e.From)
		}
		if e.Factor <= 0 || e.Factor > 1 {
			return fmt.Errorf("scenario %s: ad-exit %s: factor %v out of (0,1]", s.Name, e.Country, e.Factor)
		}
	}
	for _, e := range s.Spikes {
		if _, err := country("spike", e.Country); err != nil {
			return err
		}
		if !e.Week.Valid() {
			return fmt.Errorf("scenario %s: spike %s: invalid week %v", s.Name, e.Country, e.Week)
		}
		if e.Factor <= 1 || e.Factor > 2 {
			return fmt.Errorf("scenario %s: spike %s: factor %v out of (1,2]", s.Name, e.Country, e.Factor)
		}
	}
	for _, e := range s.Shutdowns {
		base, err := country("shutdown", e.Country)
		if err != nil {
			return err
		}
		if !e.From.Valid() {
			return fmt.Errorf("scenario %s: shutdown %s: invalid from %v", s.Name, e.Country, e.From)
		}
		if e.To != (dates.Date{}) && (!e.To.Valid() || e.To.Before(e.From)) {
			return fmt.Errorf("scenario %s: shutdown %s: bad range %v..%v", s.Name, e.Country, e.From, e.To)
		}
		// The overridden rate must satisfy the same registry bound as the
		// baseline it replaces.
		base.ShutdownRate = e.Rate
		if err := base.Validate(); err != nil {
			return fmt.Errorf("scenario %s: shutdown override: %w", s.Name, err)
		}
	}
	for _, e := range s.CGNAT {
		if _, err := country("cgnat", e.Country); err != nil {
			return err
		}
		if !e.From.Valid() {
			return fmt.Errorf("scenario %s: cgnat %s: invalid date %v", s.Name, e.Country, e.From)
		}
		if e.Factor <= 0 || e.Factor > 1 {
			return fmt.Errorf("scenario %s: cgnat %s: factor %v out of (0,1]", s.Name, e.Country, e.Factor)
		}
	}
	for _, e := range s.VPNSurges {
		if !e.From.Valid() {
			return fmt.Errorf("scenario %s: vpn-surge: invalid date %v", s.Name, e.From)
		}
		if e.Factor <= 0 || e.Factor > 10 {
			return fmt.Errorf("scenario %s: vpn-surge: factor %v out of (0,10]", s.Name, e.Factor)
		}
	}
	seenMerger := map[string]bool{}
	for _, e := range s.Mergers {
		if _, err := country("merger", e.Country); err != nil {
			return err
		}
		if seenMerger[e.Country] {
			return fmt.Errorf("scenario %s: duplicate merger override for %s", s.Name, e.Country)
		}
		seenMerger[e.Country] = true
		if e.Probability < 0 || e.Probability > 1 {
			return fmt.Errorf("scenario %s: merger %s: probability %v out of [0,1]", s.Name, e.Country, e.Probability)
		}
		if e.Year < 2013 || e.Year > 2030 {
			return fmt.Errorf("scenario %s: merger %s: year %d out of [2013,2030]", s.Name, e.Country, e.Year)
		}
	}
	seenEntrant := map[string]bool{}
	for _, e := range s.Entrants {
		if !entrantName.MatchString(e.Name) {
			return fmt.Errorf("scenario %s: entrant name %q must match %s", s.Name, e.Name, entrantName)
		}
		if seenEntrant[e.Name] {
			return fmt.Errorf("scenario %s: duplicate entrant %q", s.Name, e.Name)
		}
		seenEntrant[e.Name] = true
		if _, err := country("entrant", e.Home); err != nil {
			return err
		}
		seenCC := map[string]bool{e.Home: true}
		for _, cc := range e.Countries {
			if _, err := country("entrant", cc); err != nil {
				return err
			}
			if seenCC[cc] {
				return fmt.Errorf("scenario %s: entrant %s: duplicate country %s", s.Name, e.Name, cc)
			}
			seenCC[cc] = true
		}
		if e.EntryYear < 2013 || e.EntryYear > 2030 {
			return fmt.Errorf("scenario %s: entrant %s: entry year %d out of [2013,2030]", s.Name, e.Name, e.EntryYear)
		}
		if e.Weight <= 0 || e.Weight > 1 {
			return fmt.Errorf("scenario %s: entrant %s: weight %v out of (0,1]", s.Name, e.Name, e.Weight)
		}
		if e.MobileShare < 0 || e.MobileShare > 1 {
			return fmt.Errorf("scenario %s: entrant %s: mobile share %v out of [0,1]", s.Name, e.Name, e.MobileShare)
		}
	}
	return nil
}

// Paper returns the scenario encoding exactly the events the paper
// documents — the byte-pinned baseline every golden test runs against.
// Building a world with it reproduces the pre-scenario-engine output bit
// for bit (Myanmar's shutdown regime needs no event here: it is the geo
// registry's *baseline* ShutdownRate, which scenarios perturb but the
// paper world keeps).
func Paper() *Scenario {
	return &Scenario{
		Name:  "paper",
		Notes: "the events documented in the source paper (§3.2, §4.4, §6, Figure 1)",
		AdExits: []AdMarketExit{
			// Google paused ads in Russia on 2022-03-10.
			{Country: "RU", From: dates.New(2022, 3, 10), Factor: 0.25},
		},
		Spikes: []RegistrySpike{
			// France's ITU series spiked ~+6M users the week of 2019-05-13.
			{Country: "FR", Week: dates.New(2019, 5, 13), Factor: 1.10},
		},
		Mergers: []MergerOverride{
			{Country: "CH", Year: 2020, Probability: 1}, // Sunrise + UPC
			{Country: "DE", Year: 2019, Probability: 1}, // Vodafone + Unitymedia
		},
	}
}

// Builtins returns the named scenario roster cmd/fleet sweeps: the paper
// baseline first, then counterfactual shocks chosen to stress different
// rows of the reliability checklist. Each non-paper scenario layers its
// events on top of the paper's (the Russia pause and France spike still
// happen; history is perturbed, not erased).
func Builtins() []*Scenario {
	counterfactual := func(name, notes string, mutate func(*Scenario)) *Scenario {
		s := Paper()
		s.Name = name
		s.Notes = notes
		mutate(s)
		return s
	}
	return []*Scenario{
		Paper(),
		counterfactual("cgnat-wave",
			"aggressive CGNAT rollouts in large mobile-first markets from 2022: samples collapse while true users are unchanged, inflating users-per-sample far above the elasticity band",
			func(s *Scenario) {
				s.CGNAT = []CGNATRollout{
					{Country: "BR", From: dates.New(2022, 1, 1), Factor: 0.05},
					{Country: "IN", From: dates.New(2022, 1, 1), Factor: 0.05},
					{Country: "ID", From: dates.New(2022, 6, 1), Factor: 0.08},
				}
			}),
		counterfactual("ad-blackout",
			"a Russia-style ads pause hitting Turkey and Brazil days before the Table 2 snapshot: country sample floors break and the mid-window cut destabilizes the 7-day share series",
			func(s *Scenario) {
				s.AdExits = append(s.AdExits,
					AdMarketExit{Country: "TR", From: dates.New(2024, 4, 18), Factor: 0.02},
					AdMarketExit{Country: "BR", From: dates.New(2024, 4, 18), Factor: 0.03},
				)
			}),
		counterfactual("shutdown-regimes",
			"an Iran-style shutdown wave plus a Myanmar escalation: window-averaged sampling is suppressed hard enough to break sample sufficiency",
			func(s *Scenario) {
				s.Shutdowns = []ShutdownRegime{
					{Country: "IR", From: dates.New(2022, 9, 15), To: dates.New(2024, 12, 31), Rate: 0.45},
					{Country: "MM", From: dates.New(2023, 1, 1), Rate: 0.40}, // open-ended escalation
				}
			}),
		counterfactual("vpn-surge",
			"VPN adoption triples the Norway funnel from mid-2022, widening the hub's APNIC-vs-CDN disagreement",
			func(s *Scenario) {
				s.VPNSurges = []VPNSurge{{From: dates.New(2022, 6, 1), Factor: 3}}
			}),
		counterfactual("starlink-entry",
			"a Starlink-style operator enters seven markets in 2021 with home-registered prefixes: IP geolocation credits its users to the US",
			func(s *Scenario) {
				s.Entrants = []Entrant{{
					Name:        "GLOBALSAT",
					Home:        "US",
					Countries:   []string{"AU", "BR", "CA", "DE", "GB", "NG", "PH"},
					EntryYear:   2021,
					Weight:      0.02,
					MobileShare: 0.3,
				}}
			}),
	}
}

// ByName returns the builtin scenario with the given name.
func ByName(name string) (*Scenario, bool) {
	for _, s := range Builtins() {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}
