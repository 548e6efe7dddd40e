// Package obsv is the repo's dependency-free observability layer: a
// race-safe metrics registry (counters, gauges, bounded-bucket latency
// histograms), an http.Handler middleware that records per-route request
// counts / status classes / latency and emits structured request logs,
// a /metrics exposition endpoint (expvar-compatible JSON plus Prometheus
// text format), and a retrying http.RoundTripper with exponential
// backoff, jitter, a retry budget, and Retry-After support.
//
// The hot paths (Counter.Inc, Gauge.Set, Histogram.Observe) are plain
// atomic operations and allocate nothing; registry lookups take a
// read-lock and are meant to be done once per route/series, with the
// returned metric pointer reused across requests.
//
// Series naming follows Prometheus conventions: a metric name optionally
// followed by a brace-delimited label set, e.g.
//
//	http_requests_total{route="/v1/reports",class="2xx"}
//
// The registry treats the whole string as the series key; the Prometheus
// exposition splits it back apart so histogram series can splice in their
// "le" label.
package obsv

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency histogram bucket upper bounds, in
// seconds. Thirteen buckets from 100µs to 5s cover everything from a
// warm cache hit, which the server answers in well under a millisecond,
// to a long series over cold days.
var DefBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1, 5}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the Prometheus exposition to stay
// honest; this is not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution metric. Buckets are upper
// bounds in increasing order with an implicit +Inf bucket at the end;
// Observe is lock-free and allocation-free.
type Histogram struct {
	bounds []float64       // sorted upper bounds, immutable after creation
	counts []atomic.Uint64 // len(bounds)+1, last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-added
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets returns the bucket upper bounds and their cumulative counts
// (Prometheus semantics: counts[i] is the number of observations <=
// bounds[i]; a final +Inf entry equals Count). The slices are fresh
// copies.
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	bounds = append(bounds, h.bounds...)
	bounds = append(bounds, math.Inf(1))
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return bounds, cumulative
}

// Registry holds named metric series. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use; the getters
// create the series on first use and return the same pointer thereafter,
// so callers should hold on to the pointer rather than re-resolving it
// on every event.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() float64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		gaugeFns: map[string]func() float64{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the counter series named name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge series named name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge whose value is computed by fn at exposition
// time — for surfacing existing atomics (cache sizes, generation counts)
// without double-counting. Re-registering a name replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	r.gaugeFns[name] = fn
	r.mu.Unlock()
}

// Histogram returns the latency histogram series named name, with
// DefBuckets bounds, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(DefBuckets)
		r.hists[name] = h
	}
	return h
}

// sortedKeys returns the keys of m in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
