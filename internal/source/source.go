package source

import (
	"fmt"

	"repro/internal/dates"
	"repro/internal/obsv"
	"repro/internal/syncx"
)

// Cadence describes how often a dataset's contents actually change.
const (
	CadenceDaily   = "daily"   // a new artifact every day (apnic, cdn, dnscount)
	CadenceWeekly  = "weekly"  // revised weekly, addressable daily (itu)
	CadenceMonthly = "monthly" // one artifact per month (mlab)
	CadenceSurvey  = "survey"  // hand-collected; any date yields the survey as of then (broadband)
	CadenceScrape  = "scrape"  // registry scrape; any date yields the state as of then (ixp)
)

// Span of the synthetic world's simulated history: the default serving
// window every source reports. The APNIC archive starts 2013-11-01 (the
// paper's earliest pull) and the simulation runs through 2024.
var (
	SpanFirst = dates.New(2013, 11, 1)
	SpanLast  = dates.New(2024, 12, 31)
)

// Window describes the dates a source covers and how often its contents
// change.
type Window struct {
	First   dates.Date `json:"first"`
	Last    dates.Date `json:"last"`
	Cadence string     `json:"cadence"`
}

// Contains reports whether d falls inside the window.
func (w Window) Contains(d dates.Date) bool {
	return !d.Before(w.First) && !d.After(w.Last)
}

// CheckRange reports why first..last cannot be served: it is inverted, or
// it reaches outside SpanFirst..SpanLast, which no dataset's window
// covers.
func CheckRange(first, last dates.Date) error {
	if first.After(last) {
		return fmt.Errorf("first date %s is after last date %s", first, last)
	}
	span := Window{First: SpanFirst, Last: SpanLast}
	if !span.Contains(first) || !span.Contains(last) {
		return fmt.Errorf("range %s..%s is outside the simulated span %s..%s", first, last, SpanFirst, SpanLast)
	}
	return nil
}

// Source is one dataset simulator seen through the uniform lens: a name,
// a covered window, and a day-keyed frame generator. Each simulator
// package's NewSource builds one over the package's rich native type,
// converting at this boundary; Generate must be a pure function of
// (source construction, date) so caches may treat frames as immutable.
type Source interface {
	Name() string
	Window() Window
	Generate(d dates.Date) *Frame
}

// Func is the Source every dataset registers: a name and cadence over the
// simulated span, with frames built by a function of the date. Each
// simulator package's NewSource supplies the function that generates its
// native artifact and converts it to a frame.
type Func struct {
	name   string
	window Window
	gen    func(dates.Date) *Frame
}

// NewFunc returns a source named name whose window is SpanFirst..SpanLast
// at the given cadence and whose frames come from gen.
func NewFunc(name, cadence string, gen func(dates.Date) *Frame) *Func {
	return &Func{
		name:   name,
		window: Window{First: SpanFirst, Last: SpanLast, Cadence: cadence},
		gen:    gen,
	}
}

// Name implements Source.
func (s *Func) Name() string { return s.name }

// Window implements Source.
func (s *Func) Window() Window { return s.window }

// Generate implements Source.
func (s *Func) Generate(d dates.Date) *Frame { return s.gen(d) }

// CacheStats is one day cache's activity snapshot.
type CacheStats struct {
	Reqs, Gens    int64 // lookups and singleflight fills
	Hits, Misses  int64 // LRU accounting (Reqs = Hits + Misses)
	Evictions     int64 // hot days evicted: days a Get read
	ColdEvictions int64 // days a cold read brought in, evicted unread by Get
	Len, Cap      int   // resident days and capacity
}

// Days is the uniform bounded day cache every dataset artifact sits
// behind: per-day singleflight fills, LRU eviction, and per-dataset
// metrics on a shared registry. Each consumer keeps one per dataset for
// the values it reads: the registry for its frame artifacts (the HTTP
// server's only day cache), the experiment lab for the native values its
// typed accessors return.
type Days[T any] struct {
	lru  *syncx.LRU[int, T]
	reqs *obsv.Counter
	gens *obsv.Counter
}

// NewDays returns a day cache holding at most capacity days, reporting
// into metrics under the bounded dataset label. prefix names the
// consumer's metrics family ("source" for the lab's native values,
// "source_frame" for the registry's artifacts).
func NewDays[T any](metrics *obsv.Registry, prefix, dataset string, capacity int) *Days[T] {
	if metrics == nil {
		metrics = obsv.NewRegistry()
	}
	label := fmt.Sprintf("{dataset=%q}", dataset)
	c := &Days[T]{
		lru:  syncx.NewLRU[int, T](capacity),
		reqs: metrics.Counter(prefix + "_requests_total" + label),
		gens: metrics.Counter(prefix + "_generations_total" + label),
	}
	metrics.GaugeFunc(prefix+"_cache_days"+label, func() float64 { return float64(c.lru.Len()) })
	metrics.GaugeFunc(prefix+"_cache_capacity"+label, func() float64 { return float64(c.lru.Cap()) })
	metrics.GaugeFunc(prefix+"_cache_hits"+label, func() float64 {
		h, _, _ := c.lru.Stats()
		return float64(h)
	})
	metrics.GaugeFunc(prefix+"_cache_misses"+label, func() float64 {
		_, m, _ := c.lru.Stats()
		return float64(m)
	})
	metrics.GaugeFunc(prefix+"_cache_evictions"+label, func() float64 {
		hot, _ := c.lru.Evictions()
		return float64(hot)
	})
	metrics.GaugeFunc(prefix+"_cache_cold_evictions"+label, func() float64 {
		_, cold := c.lru.Evictions()
		return float64(cold)
	})
	return c
}

// Get returns the cached artifact for a day, filling it at most once
// while the day stays resident even under concurrent callers.
func (c *Days[T]) Get(d dates.Date, fill func(dates.Date) T) T {
	c.reqs.Inc()
	return c.lru.Get(d.DayNumber(), func() T {
		c.gens.Inc()
		return fill(d)
	})
}

// GetCold is Get for a one-touch read (syncx.LRU.GetCold).
func (c *Days[T]) GetCold(d dates.Date, fill func(dates.Date) T) T {
	c.reqs.Inc()
	return c.lru.GetCold(d.DayNumber(), func() T {
		c.gens.Inc()
		return fill(d)
	})
}

// Stats returns the cache's activity snapshot.
func (c *Days[T]) Stats() CacheStats {
	h, m, _ := c.lru.Stats()
	hot, cold := c.lru.Evictions()
	return CacheStats{
		Reqs: c.reqs.Value(), Gens: c.gens.Value(),
		Hits: h, Misses: m, Evictions: hot, ColdEvictions: cold,
		Len: c.lru.Len(), Cap: c.lru.Cap(),
	}
}
