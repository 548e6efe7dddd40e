package world

import (
	"repro/internal/dates"
	"repro/internal/orgs"
)

// yearFrac splits a date into its anchor year and the fraction of the year
// elapsed, for linear interpolation between Jan-1 anchors.
func yearFrac(d dates.Date) (year int, frac float64) {
	start := dates.YearStart(d.Year)
	next := dates.YearStart(d.Year + 1)
	span := next.Sub(start)
	return d.Year, float64(d.Sub(start)) / float64(span)
}

// MarketDay is one market resolved on one date: the share-interpolation
// anchors, the country's user total and the VPN funnel, which are the
// same for every org in the market that day. Resolve it once per
// (market, day) with World.Day; its per-entry methods then cost two
// slice loads and a few flops, with no map lookup.
type MarketDay struct {
	i0, i1 int     // share-slice indexes of the anchor year and the next
	frac   float64 // fraction of the anchor year elapsed
	total  float64 // TotalUsers
	vpnID  string  // the world's VPN org ID
	hub    bool    // the market is the VPN hub
	funnel float64 // VPNFunnelTotal; resolved for the hub and origins only
	origin float64 // the country's share of the funnel (0 off-origin)
}

// Day resolves a market on a date.
func (w *World) Day(m *Market, d dates.Date) MarketDay {
	y, f := yearFrac(d)
	u0 := m.Country.InternetUsers(y)
	u1 := m.Country.InternetUsers(y + 1)
	md := MarketDay{
		i0:     yearIndex(y),
		i1:     yearIndex(y + 1),
		frac:   f,
		total:  u0 + f*(u1-u0),
		vpnID:  w.VPNOrgID,
		hub:    m.Country.VPNHub,
		origin: w.vpnOrigin[m.Country.Code],
	}
	// Elsewhere the funnel only ever enters as funnel*0, which adds
	// nothing; skip resolving it.
	if md.hub || md.origin > 0 {
		md.funnel = w.VPNFunnelTotal(d)
	}
	return md
}

// TotalUsers returns the country's Internet user count on the day,
// interpolating the yearly penetration anchors.
func (md *MarketDay) TotalUsers() float64 { return md.total }

// Share returns an entry's user share in the market on the day,
// interpolating its Jan-1 share anchors. A nil entry (an org absent from
// the market) has share 0.
func (md *MarketDay) Share(e *Entry) float64 {
	if e == nil {
		return 0
	}
	s0, s1 := e.shares[md.i0], e.shares[md.i1]
	return s0 + md.frac*(s1-s0)
}

// TrueUsers returns the actual number of human users of an entry on the
// day — the quantity every dataset is trying to estimate.
func (md *MarketDay) TrueUsers(e *Entry) float64 {
	return md.total * md.Share(e)
}

// APNICUsers returns the users an IP-geolocation-based measurement (the
// APNIC pipeline) attributes to an entry on the day: true users, plus —
// for the VPN org in its hub country — all funneled foreign users,
// whose egress IPs geolocate to the hub.
func (md *MarketDay) APNICUsers(e *Entry) float64 {
	return md.apnicUsers(e.Org.ID, e)
}

// apnicUsers and cdnUsers take the org ID apart from its entry because
// the VPN org appears in origin countries' CDN view without a market
// entry there (e == nil).
func (md *MarketDay) apnicUsers(orgID string, e *Entry) float64 {
	u := md.TrueUsers(e)
	if md.hub && orgID == md.vpnID {
		u += md.funnel
	}
	return u
}

func (md *MarketDay) cdnUsers(orgID string, e *Entry) float64 {
	u := md.TrueUsers(e)
	if !md.hub && orgID == md.vpnID {
		u += md.funnel * md.origin
	}
	return u
}

// TotalUsers returns the country's Internet user count on a date.
func (w *World) TotalUsers(country string, d dates.Date) float64 {
	m := w.markets[country]
	if m == nil {
		return 0
	}
	md := w.Day(m, d)
	return md.TotalUsers()
}

// Share returns the org's user share in a country on a date.
func (w *World) Share(country, orgID string, d dates.Date) float64 {
	m := w.markets[country]
	if m == nil {
		return 0
	}
	md := w.Day(m, d)
	return md.Share(m.byOrg[orgID])
}

// TrueUsers returns the actual number of human users of an org in a
// country on a date. Loops over a market's entries should resolve the
// day once with Day instead.
func (w *World) TrueUsers(country, orgID string, d dates.Date) float64 {
	m := w.markets[country]
	if m == nil {
		return 0
	}
	md := w.Day(m, d)
	return md.TrueUsers(m.byOrg[orgID])
}

// Entry returns the market entry for an org in a country, or nil. Lookups
// hit the per-market index built at construction, so the call is O(1) and
// safe in per-(org, day) loops.
func (w *World) Entry(country, orgID string) *Entry {
	m := w.markets[country]
	if m == nil {
		return nil
	}
	return m.byOrg[orgID]
}

// VPNFunnelTotal returns the number of foreign users funneled through the
// VPN hub's egress IPs on a date. It grows roughly linearly from ~0.5M in
// 2013 to ~5.5M in 2024 — on the order of the hub country's own Internet
// population, which is what makes the VPN org rank among the largest
// "networks" globally in APNIC's view (the paper's 23rd-largest
// observation, §4.4) while the CDN sees almost nobody there.
func (w *World) VPNFunnelTotal(d dates.Date) float64 {
	if w.VPNOrgID == "" {
		return 0
	}
	y, f := yearFrac(d)
	yearF := float64(y) + f
	frac := (yearF - 2013) / 11
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	base := 0.5e6 + frac*5.0e6
	// Scenario VPN-adoption surges scale the funnel; the factor is exactly
	// 1 for the paper scenario, which skips the multiply and keeps the
	// historical float math bit for bit.
	if f := w.shocks.VPNFactor(d); f != 1 {
		base *= f
	}
	return base
}

// APNICUsers is MarketDay.APNICUsers for an org in a country on a date.
func (w *World) APNICUsers(country, orgID string, d dates.Date) float64 {
	m := w.markets[country]
	if m == nil {
		return 0
	}
	md := w.Day(m, d)
	return md.apnicUsers(orgID, m.byOrg[orgID])
}

// CDNUsers is MarketDay.CDNUsers for an org in a country on a date,
// including the VPN org's origin-country appearances, which have no
// market entry.
func (w *World) CDNUsers(country, orgID string, d dates.Date) float64 {
	m := w.markets[country]
	if m == nil {
		return 0
	}
	md := w.Day(m, d)
	return md.cdnUsers(orgID, m.byOrg[orgID])
}

// CountryOrgPairs enumerates every (country, org) pair with nonzero CDN
// users on a date: each market's active entries, plus the VPN org's
// origin-country appearances. Activity only changes at year granularity,
// so the slice is cached per year; callers must treat it as read-only.
func (w *World) CountryOrgPairs(d dates.Date) []orgs.CountryOrg {
	return w.pairs.Get(d.Year, func() []orgs.CountryOrg {
		out := make([]orgs.CountryOrg, 0, 4096)
		for _, code := range w.codes {
			for _, e := range w.markets[code].Entries {
				if !activeIn(e, d.Year) {
					continue
				}
				out = append(out, orgs.CountryOrg{Country: code, Org: e.Org.ID})
			}
			if w.VPNOrgID != "" && w.vpnOrigin[code] > 0 {
				out = append(out, orgs.CountryOrg{Country: code, Org: w.VPNOrgID})
			}
		}
		return out
	})
}

// ActiveEntries returns a market's entries active in the date's year.
// The slice is cached per year (entry and exit are annual events) and
// shared between callers; callers must treat it as read-only.
func (m *Market) ActiveEntries(d dates.Date) []*Entry {
	return m.active.Get(d.Year, func() []*Entry {
		out := make([]*Entry, 0, len(m.Entries))
		for _, e := range m.Entries {
			if activeIn(e, d.Year) {
				out = append(out, e)
			}
		}
		return out
	})
}

// ShutdownFactor returns the fraction of normal Internet activity
// surviving in a country on a specific day: 1.0 normally, ~0.1 on a
// government-shutdown day. Shutdown days are *world events*: every
// measurement system (APNIC sampling, CDN logs, M-Lab tests) observes the
// same realization, which is what makes the Myanmar comparison of §4.4
// meaningful — the CDN's short observation window reacts to individual
// shutdown days while APNIC's 60-day window smooths over them.
func (w *World) ShutdownFactor(country string, d dates.Date) float64 {
	m := w.markets[country]
	if m == nil || !m.hasShutdowns() {
		return 1
	}
	return w.shutdownFactor(m, d)
}

// chanShutdown is the world's event-channel derivation key.
const chanShutdown uint64 = 1

// hasShutdowns reports whether the market can ever see a shutdown day:
// a baseline rate from the geo registry, or a scenario regime override.
func (m *Market) hasShutdowns() bool {
	return m.Country.ShutdownRate != 0 || (m.shocks != nil && m.shocks.HasShutdownRegime())
}

// shutdownRate resolves the effective per-day shutdown probability: the
// geo registry's baseline, overridden by whichever scenario regime covers
// the day.
func (m *Market) shutdownRate(dayNumber int) float64 {
	rate := m.Country.ShutdownRate
	if m.shocks != nil && m.shocks.HasShutdownRegime() {
		rate = m.shocks.ShutdownRate(dayNumber, rate)
	}
	return rate
}

func (w *World) shutdownFactor(m *Market, d dates.Date) float64 {
	dn := d.DayNumber()
	rate := m.shutdownRate(dn)
	if rate == 0 {
		return 1
	}
	// The realization stream is keyed by (country, day) alone, not by the
	// rate: a scenario that raises the rate reuses the same underlying
	// draws, so baseline shutdown days stay shutdown days and the regime
	// only adds new ones — and the paper scenario (no overrides)
	// reproduces the historical realization exactly.
	s := w.events.Derive(chanShutdown, m.key, uint64(int64(dn)))
	if s.Bool(rate) {
		return 0.1
	}
	return 1
}

// ShutdownWindowFactor averages ShutdownFactor over the window days
// ending at d — the suppression a window-averaged measurement like APNIC
// experiences. The average is identical for every org in the country, so
// it is cached per (country, day, window); concurrent callers share one
// singleflight fill. A window <= 0 has no days to average and returns 1
// (it used to divide an empty sum and poison callers with NaN).
func (w *World) ShutdownWindowFactor(country string, d dates.Date, window int) float64 {
	m := w.markets[country]
	if m == nil || !m.hasShutdowns() || window <= 0 {
		return 1
	}
	return m.winShut.Get(winKey{day: d.DayNumber(), window: window}, func() float64 {
		total := 0.0
		for i := 0; i < window; i++ {
			total += w.shutdownFactor(m, d.AddDays(-i))
		}
		return total / float64(window)
	})
}
