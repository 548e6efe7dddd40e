// Package syncx provides the small concurrency primitives shared by the
// day-artifact caches: a generic per-key singleflight memo and a bounded
// deterministic parallel-for. Both exist so that the experiment pipeline
// can use every core without giving up byte-identical results — callers
// only ever observe values that are pure functions of their inputs, never
// of scheduling order.
package syncx

import (
	"runtime"
	"sync"
)

// Cache memoizes one value per key with singleflight fills: concurrent
// Get calls for the same key block until the single in-flight fill
// completes and then share its result, while fills for distinct keys
// proceed in parallel. A fill function runs at most once per key over the
// cache's lifetime; the value is retained forever. The zero value is
// ready to use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*cacheEntry[V]
}

type cacheEntry[V any] struct {
	once sync.Once
	val  V
}

// Get returns the cached value for key, running fill to produce it unless
// a fill for key already completed or is in flight. The map lock is held
// only while locating the entry, never across fill, so misses on distinct
// keys do not serialize.
func (c *Cache[K, V]) Get(key K, fill func() V) V {
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[K]*cacheEntry[V])
	}
	e, ok := c.entries[key]
	if !ok {
		e = new(cacheEntry[V])
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.val = fill() })
	return e.val
}

// Len reports how many keys have an entry (filled or in flight).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// ParallelEach invokes fn(i) for every i in [0, n), running at most
// parallelism calls concurrently (GOMAXPROCS when parallelism <= 0). It
// returns after all calls complete. Determinism contract: each fn(i) must
// depend only on i and write only to its own slot of any shared output,
// so the aggregate result is independent of interleaving.
func ParallelEach(n, parallelism int, fn func(i int)) {
	if n <= 0 {
		return
	}
	parallelism = Workers(n, parallelism)
	if parallelism == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// Workers returns how many calls ParallelEach(n, parallelism, fn) runs
// at once: parallelism, or GOMAXPROCS when parallelism <= 0, capped at n.
func Workers(n, parallelism int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return min(parallelism, n)
}
