package syncx

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// LRU is a bounded variant of Cache: per-key singleflight fills with
// least-recently-used eviction once the number of resident keys exceeds
// the capacity. It exists for long-running servers where the key space
// (e.g. every day of a decade-long date range) is too large to retain
// forever but hot keys must still be generated at most once while they
// stay resident.
//
// The singleflight guarantee is scoped to residency: while a key is in
// the cache, concurrent Gets share one fill; after the key is evicted, a
// later Get fills again. Callers therefore need fills that are pure
// functions of the key (true of every day artifact in this repository),
// so an eviction can never change observable values, only cost.
//
// Hit, miss, and eviction counts are kept as atomics so an observability
// layer can surface them as gauges without taking the cache lock. Cold
// evictions, of keys that entered through GetCold and were never read
// by Get, are also counted apart: a one-touch read displacing another
// says nothing about the hot set.
type LRU[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[K]*list.Element // values are *lruEntry[K, V]
	order   list.List           // most recently used first

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	coldEvictions atomic.Int64
}

type lruEntry[K comparable, V any] struct {
	key  K
	cold bool // entered through GetCold and not read by Get since
	once sync.Once
	val  V
}

// NewLRU returns a bounded cache retaining at most capacity keys
// (capacity < 1 means 1).
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[K, V]{cap: capacity, entries: make(map[K]*list.Element, capacity)}
}

// Get returns the value for key, running fill unless a fill for key is
// resident (completed or in flight), and marks key most recently used.
// The lock is held only to locate the entry and maintain recency order,
// never across fill, so misses on distinct keys do not serialize. An
// entry evicted while its fill is in flight still completes for its
// waiters; it is simply no longer shared with later callers.
func (c *LRU[K, V]) Get(key K, fill func() V) V { return c.get(key, fill, false) }

// GetCold is Get for a one-touch read: a resident key keeps its recency,
// and a missing key, after any eviction, enters as the least recently
// used, so it is the next to go and never evicts itself.
func (c *LRU[K, V]) GetCold(key K, fill func() V) V { return c.get(key, fill, true) }

func (c *LRU[K, V]) get(key K, fill func() V, cold bool) V {
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		c.hits.Add(1)
		if !cold {
			c.order.MoveToFront(el)
			el.Value.(*lruEntry[K, V]).cold = false
		}
	} else {
		c.misses.Add(1)
		if len(c.entries) >= c.cap {
			victim := c.order.Remove(c.order.Back()).(*lruEntry[K, V])
			delete(c.entries, victim.key)
			if victim.cold {
				c.coldEvictions.Add(1)
			} else {
				c.evictions.Add(1)
			}
		}
		e := &lruEntry[K, V]{key: key, cold: cold}
		if cold {
			el = c.order.PushBack(e)
		} else {
			el = c.order.PushFront(e)
		}
		c.entries[key] = el
	}
	e := el.Value.(*lruEntry[K, V])
	c.mu.Unlock()
	e.once.Do(func() { e.val = fill() })
	return e.val
}

// Len reports how many keys are resident (filled or in flight).
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Cap returns the configured capacity.
func (c *LRU[K, V]) Cap() int { return c.cap }

// Stats returns cumulative hit, miss, and eviction counts. Safe to call
// concurrently with Get; intended for metrics gauges.
func (c *LRU[K, V]) Stats() (hits, misses, evictions int64) {
	hot, cold := c.Evictions()
	return c.hits.Load(), c.misses.Load(), hot + cold
}

// Evictions splits the eviction count: cold evictions took a key that
// entered through GetCold and was never read by Get since, hot ones
// every other key.
func (c *LRU[K, V]) Evictions() (hot, cold int64) {
	return c.evictions.Load(), c.coldEvictions.Load()
}
