package apnic

import (
	"sync"
	"sync/atomic"

	"repro/internal/dates"
	"repro/internal/rng"
	"repro/internal/syncx"
	"repro/internal/world"
)

// The per-(country, day) scans behind CountryTotals and CountryOrgShares
// are demand-driven memos. The stability analysis (Figure 8's eight
// curves and their 60-day best-day windows) and the 2024 elasticity
// sweep (Figure 7) hit the same (country, day) pairs thousands of times
// across runners; both scans are pure functions of (seed, country, day),
// so each pair is computed once and shared.
//
// The memo is one scanTable per market. A table holds one yearPlan per
// calendar year it has been asked about, found by one int-keyed lookup
// in a singleflight cache. A plan holds the year's ActiveEntries, each
// entry's two derivation prefixes, and one weekSlot per noise week
// (DayNumber()/7) of the year, made on first touch. A week slot holds
// the week's window-noise vector and the seven days' answers.
//
// The year is part of the key because a noise week can span Dec 31 and
// Jan 1, and the active entries that the noise vector is aligned with
// change by calendar year: such a week has one slot in each year's plan.

// scanTable is one market's memo of the country scans.
type scanTable struct {
	m     *world.Market
	plans syncx.Cache[int, *yearPlan] // by calendar year
}

// yearPlan is one market's scan state for one calendar year. Everything
// but the week slots is fixed when the plan is built.
type yearPlan struct {
	active  []*world.Entry // the market's ActiveEntries for the year
	streams []entryStreams // per active entry
	week0   int            // noise week of Jan 1
	weeks   []atomic.Pointer[weekSlot]
}

// entryStreams holds an entry's derivation prefixes: root.Derive(channel,
// market key, entry key). Derive folds its keys left to right, so
// prefix.Derive(week or day) is bit-identical to deriving all four keys
// from the root, at a quarter of the mixing.
type entryStreams struct {
	volatility rng.Stream // windowNoise's stream, before the week key
	poisson    rng.Stream // the Poisson draw's stream, before the day key
}

// weekSlot is one (market, year, noise week): the week's window noise
// and the answers of its days. Each fill runs once, under mu; done has
// one bit per fill, set after the fill's writes, so a reader that sees
// the bit reads the value without the lock.
type weekSlot struct {
	mu    sync.Mutex
	done  atomic.Uint32 // noiseDone, totalsDone<<day, sharesDone<<day
	noise []float64     // aligned with the plan's active entries
	days  [7]daySlot    // by dayIndex
}

// daySlot holds one day's memoized scans.
type daySlot struct {
	samples int64
	users   float64
	shares  map[string]float64
}

// The done bits of a week slot.
const (
	noiseDone  uint32 = 1
	totalsDone uint32 = 1 << 1 // shifted left by the day's index
	sharesDone uint32 = 1 << 8 // shifted left by the day's index
)

// has reports whether the fill behind bit has completed.
func (w *weekSlot) has(bit uint32) bool { return w.done.Load()&bit != 0 }

// fill runs f and sets bit unless bit is already set. f runs under the
// slot's lock, so it runs at most once per bit; it must not take the
// lock itself.
func (w *weekSlot) fill(bit uint32, f func()) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.has(bit) {
		f()
		w.done.Store(w.done.Load() | bit) // writers hold mu
	}
}

// dayIndex is a day's slot in its noise week. DayNumber()/7 truncates
// toward zero, so a week before 1970 runs from 7w-6 to 7w; the
// magnitude of the remainder keeps each week's days apart either way.
// (Week 0 holds 1969-12-26..1970-01-07, but those fall in two years'
// plans.)
func dayIndex(dn int) int {
	i := dn % 7
	if i < 0 {
		return -i
	}
	return i
}

// plan returns the market's plan for a calendar year, building it on
// first use.
func (t *scanTable) plan(g *Generator, year int) *yearPlan {
	return t.plans.Get(year, func() *yearPlan { return g.newYearPlan(t.m, year) })
}

// newYearPlan builds a market's plan for a calendar year.
func (g *Generator) newYearPlan(m *world.Market, year int) *yearPlan {
	jan1 := dates.YearStart(year).DayNumber()
	dec31 := dates.YearStart(year+1).DayNumber() - 1
	p := &yearPlan{
		active: m.ActiveEntries(dates.YearStart(year)),
		week0:  jan1 / 7,
	}
	p.weeks = make([]atomic.Pointer[weekSlot], dec31/7-p.week0+1)
	p.streams = make([]entryStreams, len(p.active))
	for i, e := range p.active {
		p.streams[i] = entryStreams{
			volatility: g.root.Derive(chanVolatility, m.Key(), e.Key),
			poisson:    g.root.Derive(chanPoisson, m.Key(), e.Key),
		}
	}
	return p
}

// week returns the slot of the noise week holding day number dn, making
// it on first touch, or nil when dn is outside the plan's year.
func (p *yearPlan) week(dn int) *weekSlot {
	k := dn/7 - p.week0
	if k < 0 || k >= len(p.weeks) {
		return nil
	}
	if w := p.weeks[k].Load(); w != nil {
		return w
	}
	p.weeks[k].CompareAndSwap(nil, new(weekSlot))
	return p.weeks[k].Load()
}

// count is orgSamples for the plan's i-th active entry with its window
// noise given: the same mean, and the Poisson draw from the entry's
// prefix.
func (p *yearPlan) count(ad *apnicDay, i int, noise float64) int64 {
	mean := orgMean(ad, p.active[i], noise)
	if mean <= 0 {
		return 0
	}
	s := p.streams[i].poisson.Derive(ad.day)
	return s.Poisson(mean)
}

// scanAt is one (market, day) located in its scan table.
type scanAt struct {
	m    *world.Market
	plan *yearPlan
	week *weekSlot
	day  int // dayIndex
	d    dates.Date
}

// locate finds a (country, day) in the scan tables; ok is false for a
// country without a market.
func (g *Generator) locate(country string, d dates.Date) (at scanAt, ok bool) {
	t := g.tables[country]
	if t == nil {
		return at, false
	}
	dn := d.DayNumber()
	p := t.plan(g, d.Year)
	w := p.week(dn)
	if w == nil { // d's fields are not normalized: Month 13, Day 32
		return g.locate(country, dates.FromDayNumber(dn))
	}
	return scanAt{m: t.m, plan: p, week: w, day: dayIndex(dn), d: d}, true
}

// weekNoise returns the window noise of the plan's active entries for
// at's week, drawn once per (country, year, week) and shared by every
// later scan of the week. The slice is shared: callers must not modify
// it.
func (g *Generator) weekNoise(at *scanAt, ad *apnicDay) []float64 {
	if !at.week.has(noiseDone) {
		at.week.mu.Lock()
		defer at.week.mu.Unlock()
	}
	return g.weekNoiseLocked(at, ad)
}

// weekNoiseLocked is weekNoise for a caller holding the week's lock:
// windowNoise for every active entry, from the entries' prefixes.
func (g *Generator) weekNoiseLocked(at *scanAt, ad *apnicDay) []float64 {
	w := at.week
	if !w.has(noiseDone) {
		g.noiseFills.Add(1)
		noise := make([]float64, len(at.plan.active))
		for i := range noise {
			s := at.plan.streams[i].volatility.Derive(ad.week)
			noise[i] = s.LogNormal(0, at.m.Country.AdVolatility)
		}
		w.noise = noise
		w.done.Store(w.done.Load() | noiseDone) // writers hold mu
	}
	return w.noise
}

// CountryTotals computes one country's total window samples and ITU-scaled
// estimated users on a date without generating the full world report.
// The best-day selection rule (§5.1.2) scans 60 days per country, and this
// keeps that scan cheap. Totals include only ASes above the inclusion
// floor, like the published dataset. Results are memoized per
// (country, day) in the market's scan table: repeat lookups — Figure 7's
// weekly 2024 sweep, Figure 8's best-day windows, the artifact checks —
// share one computation.
func (g *Generator) CountryTotals(country string, d dates.Date) (samples int64, users float64) {
	at, ok := g.locate(country, d)
	if !ok {
		return 0, 0
	}
	day := &at.week.days[at.day]
	if bit := totalsDone << at.day; !at.week.has(bit) {
		at.week.fill(bit, func() {
			g.totalsScans.Add(1)
			ad := g.resolve(at.m, d)
			day.samples, day.users = g.countryTotalsScan(&at, &ad, g.weekNoiseLocked(&at, &ad))
		})
	}
	return day.samples, day.users
}

// countryTotalsScan is the uncached CountryTotals computation over a
// located day, its resolved market-day and the week's noise.
func (g *Generator) countryTotalsScan(at *scanAt, ad *apnicDay, noise []float64) (samples int64, users float64) {
	for i, e := range at.plan.active {
		total := at.plan.count(ad, i, noise[i])
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
		users = g.ITU.Users(at.m.Country.Code, at.d)
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
	at, ok := g.locate(country, d)
	if !ok {
		return nil
	}
	day := &at.week.days[at.day]
	if bit := sharesDone << at.day; !at.week.has(bit) {
		at.week.fill(bit, func() {
			g.sharesScans.Add(1)
			ad := g.resolve(at.m, d)
			day.shares = g.countryOrgSharesScan(&at, &ad, g.weekNoiseLocked(&at, &ad))
		})
	}
	return day.shares
}

// countryOrgSharesScan is the uncached CountryOrgShares computation over
// a located day, its resolved market-day and the week's noise.
func (g *Generator) countryOrgSharesScan(at *scanAt, ad *apnicDay, noise []float64) map[string]float64 {
	out := map[string]float64{}
	var total int64
	for i, e := range at.plan.active {
		orgTotal := at.plan.count(ad, i, noise[i])
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
