package astopo

import (
	"sort"

	"repro/internal/dates"
	"repro/internal/geo"
	"repro/internal/orgs"
	"repro/internal/rng"
	"repro/internal/syncx"
	"repro/internal/world"
)

// chanTrace is the derivation channel for per-(vantage, day) trace
// streams: root.Derive(chanTrace, vantageKey, dayNumber) replaces the
// old root.Split("trace/"+v+"/"+d.String()) label format on the hot path.
const chanTrace uint64 = 1

// hopLossProb is the per-hop probability that a traceroute fails to
// reveal an AS on the path (the paper's "inaccuracies").
const hopLossProb = 0.08

// Campaign is a traceroute measurement campaign: vantage points probe
// destinations across the topology and the observed AS paths are folded
// into per-organization path popularity — the [69]-style traffic proxy.
type Campaign struct {
	W     *world.World
	Graph *Graph

	// Vantages are the probing orgs. The default selection is biased
	// toward Europe and North America, reproducing the source-location
	// bias the paper cites.
	Vantages []string

	// parallelism bounds how many vantages Run traces concurrently
	// (GOMAXPROCS when <= 0, as every caller but the serial-vs-parallel
	// test leaves it). Every setting produces byte-identical results:
	// each vantage accumulates into its own partial weight map and
	// partials are merged in sorted vantage order.
	parallelism int

	root        *rng.Stream
	vantageKeys []uint64 // rng.KeyString per vantage, parallel to Vantages

	// paths memoizes PathsFrom per vantage: the valley-free BFS is the
	// expensive part of a trace and is identical across days.
	paths syncx.Cache[string, *Paths]
}

// NewCampaign builds a campaign with nVantages probes chosen with the
// canonical geographic bias: ~70% of vantage points in Europe and North
// America, the rest spread across the remaining continents.
func NewCampaign(w *world.World, g *Graph, seed uint64, nVantages int) *Campaign {
	c := &Campaign{
		W:     w,
		Graph: g,
		root:  rng.New(seed).Split("campaign"),
	}
	s := c.root.Split("vantages")

	var west, rest []string
	for _, cc := range w.Countries() {
		m := w.Market(cc)
		cont := m.Country.Continent()
		for _, e := range m.ActiveEntries(dates.New(2023, 7, 20)) {
			if !e.Org.Type.HostsUsers() || e.BaseWeight < 0.05 {
				continue
			}
			if cont == geo.Europe || cont == geo.NorthAmerica {
				west = append(west, e.Org.ID)
			} else {
				rest = append(rest, e.Org.ID)
			}
		}
	}
	sort.Strings(west)
	sort.Strings(rest)
	nWest := nVantages * 7 / 10
	c.Vantages = append(pickDistinct(s, west, nWest), pickDistinct(s, rest, nVantages-nWest)...)
	sort.Strings(c.Vantages)
	c.vantageKeys = make([]uint64, len(c.Vantages))
	for i, v := range c.Vantages {
		c.vantageKeys[i] = rng.KeyString(v)
	}
	return c
}

// Popularity is the campaign result: per-org weighted path appearances.
type Popularity struct {
	// Weight is the flow-weighted number of observed paths crossing the
	// org, keyed by org ID.
	Weight map[string]float64
	// Traces is the number of traceroutes run.
	Traces int
	// LostHops counts AS hops hidden by measurement error.
	LostHops int
}

// Run executes the campaign on a date: every vantage traces toward
// destination orgs sampled in proportion to their traffic attractiveness
// (content networks dominate), each trace weighted by the vantage org's
// user population — approximating "paths weighted by popularity".
func (c *Campaign) Run(d dates.Date, tracesPerVantage int) *Popularity {
	pop := &Popularity{Weight: map[string]float64{}}

	// Destination mix: orgs weighted by users × traffic intensity, the
	// flow gravity model.
	var dsts []string
	var dstW []float64
	for _, cc := range c.W.Countries() {
		m := c.W.Market(cc)
		md := c.W.Day(m, d)
		for _, e := range m.ActiveEntries(d) {
			if e.Org.Home != cc {
				continue
			}
			attract := md.TrueUsers(e) * e.TrafficPerUser
			if attract <= 0 {
				continue
			}
			dsts = append(dsts, e.Org.ID)
			dstW = append(dstW, attract)
		}
	}
	cum := rng.Cumulative(dstW)
	if cum == nil {
		return pop
	}

	// Trace every vantage into its own partial, then merge in sorted
	// vantage order. Partials make the float accumulation order a pure
	// function of the (sorted) vantage list, so serial and parallel runs
	// are byte-identical.
	parts := make([]tracePartial, len(c.Vantages))
	syncx.ParallelEach(len(c.Vantages), c.parallelism, func(i int) {
		parts[i] = c.trace(d, i, tracesPerVantage, dsts, cum)
	})
	for i := range parts {
		pop.Traces += parts[i].traces
		pop.LostHops += parts[i].lostHops
		for id, w := range parts[i].weight {
			pop.Weight[id] += w
		}
	}
	return pop
}

// tracePartial is one vantage's contribution to a Popularity.
type tracePartial struct {
	weight   map[string]float64
	traces   int
	lostHops int
}

// trace runs vantage i's probes for one day. It touches only shared
// read-only state (world queries and the memoized path tree), so Run may
// invoke it concurrently across vantages.
func (c *Campaign) trace(d dates.Date, i, tracesPerVantage int, dsts []string, cum []float64) tracePartial {
	part := tracePartial{weight: map[string]float64{}}
	v := c.Vantages[i]
	paths := c.pathsFrom(v)
	o, ok := c.W.Registry.ByID(v)
	if !ok {
		return part
	}
	weight := c.W.TrueUsers(o.Home, v, d)
	if weight <= 0 {
		weight = 1
	}
	s := c.root.Derive(chanTrace, c.vantageKeys[i], uint64(int64(d.DayNumber())))
	for t := 0; t < tracesPerVantage; t++ {
		dst := dsts[s.Categorical(cum)]
		path, ok := paths.To(dst)
		if !ok {
			continue
		}
		part.traces++
		for _, hop := range path {
			if s.Bool(hopLossProb) {
				part.lostHops++
				continue // hop hidden by measurement error
			}
			part.weight[hop] += weight
		}
	}
	return part
}

// pathsFrom returns the memoized valley-free path tree for a vantage.
// PathsFrom is deterministic in (graph, src), so the first computation is
// shared by every later Run regardless of date.
func (c *Campaign) pathsFrom(v string) *Paths {
	return c.paths.Get(v, func() *Paths { return c.Graph.PathsFrom(v) })
}

// CountryShares projects the popularity onto one country's organizations
// (by org home), normalized to sum to 1.
func (p *Popularity) CountryShares(reg *orgs.Registry, country string) map[string]float64 {
	out := map[string]float64{}
	for id, w := range p.Weight {
		o, ok := reg.ByID(id)
		if !ok || o.Home != country {
			continue
		}
		out[id] = w
	}
	// Sum in sorted ID order: float addition is order-sensitive and map
	// ranges are not, so an unsorted sum would vary run to run.
	ids := make([]string, 0, len(out))
	for id := range out {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	total := 0.0
	for _, id := range ids {
		total += out[id]
	}
	if total > 0 {
		for _, id := range ids {
			out[id] /= total
		}
	}
	return out
}
