package scenario

import (
	"math"

	"repro/internal/dates"
)

// Compiled is the world-construction view of a scenario: events bucketed
// per country and converted to integer day/week keys, so the generators'
// hot loops (per-(org, day) sampling) pay one nil check for unaffected
// countries and a short slice scan otherwise — never a map lookup on a
// string or a date comparison through dates.Date.
type Compiled struct {
	scn  *Scenario
	byCC map[string]*CountryShocks
	vpn  []stepFactor
}

// stepFactor is one open-ended multiplicative step: the factor applies
// from day number from on.
type stepFactor struct {
	from   int
	factor float64
}

// regime is one shutdown-rate override over [from, to] day numbers.
type regime struct {
	from, to int
	rate     float64
}

// CountryShocks is one country's compiled event view. A nil *CountryShocks
// means the scenario does not touch the country at all.
type CountryShocks struct {
	sampling []stepFactor    // ad exits + CGNAT, ordered by from day
	spikes   map[int]float64 // ITU week index → guaranteed factor
	regimes  []regime        // shutdown overrides, ordered by from day
}

// Compile validates a scenario and builds its per-country view. A nil
// scenario compiles the paper baseline.
func Compile(s *Scenario) (*Compiled, error) {
	if s == nil {
		s = Paper()
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{scn: s, byCC: map[string]*CountryShocks{}}
	shocks := func(cc string) *CountryShocks {
		sh := c.byCC[cc]
		if sh == nil {
			sh = &CountryShocks{}
			c.byCC[cc] = sh
		}
		return sh
	}
	for _, e := range s.AdExits {
		sh := shocks(e.Country)
		sh.sampling = append(sh.sampling, stepFactor{from: e.From.DayNumber(), factor: e.Factor})
	}
	for _, e := range s.CGNAT {
		sh := shocks(e.Country)
		sh.sampling = append(sh.sampling, stepFactor{from: e.From.DayNumber(), factor: e.Factor})
	}
	for _, e := range s.Spikes {
		sh := shocks(e.Country)
		if sh.spikes == nil {
			sh.spikes = map[int]float64{}
		}
		sh.spikes[dates.WeekIndex(e.Week)] = e.Factor
	}
	for _, e := range s.Shutdowns {
		sh := shocks(e.Country)
		to := math.MaxInt
		if e.To != (dates.Date{}) {
			to = e.To.DayNumber()
		}
		sh.regimes = append(sh.regimes, regime{from: e.From.DayNumber(), to: to, rate: e.Rate})
	}
	for _, e := range s.VPNSurges {
		c.vpn = append(c.vpn, stepFactor{from: e.From.DayNumber(), factor: e.Factor})
	}
	return c, nil
}

// Country returns the compiled shocks for one country, or nil when the
// scenario leaves it untouched. The result is immutable and shared.
func (c *Compiled) Country(cc string) *CountryShocks { return c.byCC[cc] }

// Mergers returns the per-country merger overrides.
func (c *Compiled) Mergers() map[string]MergerOverride {
	out := make(map[string]MergerOverride, len(c.scn.Mergers))
	for _, m := range c.scn.Mergers {
		out[m.Country] = m
	}
	return out
}

// Entrants returns the scenario's new-entrant orgs in declaration order.
func (c *Compiled) Entrants() []Entrant { return c.scn.Entrants }

// VPNFactor returns the funnel multiplier active on a day (1 when no
// surge applies).
func (c *Compiled) VPNFactor(d dates.Date) float64 {
	if len(c.vpn) == 0 {
		return 1
	}
	f := 1.0
	dn := d.DayNumber()
	for _, s := range c.vpn {
		if dn >= s.from {
			f *= s.factor
		}
	}
	return f
}

// SamplingFactor returns the product of the country's active ad-sampling
// multipliers on a day number: 1 before any event, the event factors
// afterwards. The paper's Russia exit compiles to exactly one step, so the
// hot loop's `reach *= factor` reproduces the historical float math.
func (sh *CountryShocks) SamplingFactor(dayNumber int) float64 {
	f := 1.0
	for _, s := range sh.sampling {
		if dayNumber >= s.from {
			f *= s.factor
		}
	}
	return f
}

// HasSampling reports whether any ad-sampling event targets the country.
func (sh *CountryShocks) HasSampling() bool { return len(sh.sampling) > 0 }

// RegistrySpike returns the guaranteed ITU anomaly factor for a week
// index, if one is scheduled.
func (sh *CountryShocks) RegistrySpike(week int) (float64, bool) {
	f, ok := sh.spikes[week]
	return f, ok
}

// HasShutdownRegime reports whether any shutdown override targets the
// country — the cheap gate before per-day rate resolution.
func (sh *CountryShocks) HasShutdownRegime() bool { return len(sh.regimes) > 0 }

// ShutdownRate resolves the country's effective shutdown rate on a day
// number: the last declared regime covering the day wins, the baseline
// applies outside every regime.
func (sh *CountryShocks) ShutdownRate(dayNumber int, baseline float64) float64 {
	rate := baseline
	for _, r := range sh.regimes {
		if dayNumber >= r.from && dayNumber <= r.to {
			rate = r.rate
		}
	}
	return rate
}
