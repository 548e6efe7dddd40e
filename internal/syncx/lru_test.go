package syncx

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLRUSingleflight hammers one resident key and checks exactly one
// fill ran and every caller saw its value.
func TestLRUSingleflight(t *testing.T) {
	c := NewLRU[string, int](4)
	var fills atomic.Int64
	var wg sync.WaitGroup
	const goroutines = 48
	results := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g] = c.Get("k", func() int {
				fills.Add(1)
				time.Sleep(2 * time.Millisecond) // widen the race window
				return 9
			})
		}()
	}
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("fill ran %d times, want 1", n)
	}
	for g, v := range results {
		if v != 9 {
			t.Fatalf("goroutine %d saw %d, want 9", g, v)
		}
	}
	hits, misses, evictions := c.Stats()
	if misses != 1 || evictions != 0 {
		t.Fatalf("stats = (%d hits, %d misses, %d evictions); want 1 miss, 0 evictions", hits, misses, evictions)
	}
	if hits != goroutines-1 {
		t.Fatalf("hits = %d, want %d", hits, goroutines-1)
	}
}

// TestLRUEviction walks more keys than the capacity and checks the
// recency order of evictions: the least recently *used* key goes, not
// the least recently inserted.
func TestLRUEviction(t *testing.T) {
	c := NewLRU[int, int](2)
	fills := map[int]int{}
	get := func(k int) int {
		return c.Get(k, func() int { fills[k]++; return k * 10 })
	}
	get(1) // resident: [1]
	get(2) // resident: [2 1]
	get(1) // touch 1 → resident: [1 2]
	get(3) // evicts 2 → resident: [3 1]
	if _, _, ev := c.Stats(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	if got := get(2); got != 20 { // refill after eviction
		t.Fatalf("Get(2) = %d, want 20", got)
	}
	if fills[2] != 2 {
		t.Fatalf("key 2 filled %d times; want 2 (evicted then refilled)", fills[2])
	}
	if fills[1] != 1 {
		t.Fatalf("key 1 filled %d times; want 1 (kept resident by the touch)", fills[1])
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want capacity 2", c.Len())
	}
}

// TestLRUDeterministicRefill checks the contract the day caches rely on:
// values are pure functions of the key, so an evicted-and-refilled key
// yields an equal value.
func TestLRUDeterministicRefill(t *testing.T) {
	c := NewLRU[int, int](1)
	pure := func(k int) func() int { return func() int { return k*k + 7 } }
	first := c.Get(5, pure(5))
	c.Get(6, pure(6)) // evicts 5
	again := c.Get(5, pure(5))
	if first != again {
		t.Fatalf("refill changed value: %d then %d", first, again)
	}
}

// TestLRUHammerUnderPressure pounds a key space larger than the capacity
// from many goroutines — the -race workout for concurrent Get, eviction,
// and in-flight eviction. Values must always match the key's pure fill.
func TestLRUHammerUnderPressure(t *testing.T) {
	const capacity, keys = 8, 64
	c := NewLRU[int, int](capacity)
	var wg sync.WaitGroup
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*13 + i) % keys
				get := c.Get
				if i%3 == 0 { // mix one-touch reads into the recency traffic
					get = c.GetCold
				}
				if got := get(k, func() int { return k * 101 }); got != k*101 {
					t.Errorf("Get(%d) = %d, want %d", k, got, k*101)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := c.Len(); n > capacity {
		t.Fatalf("Len = %d exceeds capacity %d", n, capacity)
	}
	hits, misses, evictions := c.Stats()
	if evictions == 0 {
		t.Fatal("no evictions under pressure")
	}
	if hits+misses != 24*500 {
		t.Fatalf("hits (%d) + misses (%d) != requests (%d)", hits, misses, 24*500)
	}
	if misses < keys { // every key must have missed at least once
		t.Fatalf("misses = %d, want >= %d", misses, keys)
	}
}

// TestLRUGetColdEvictsLRUNeverItself fills a full cache cold: each
// cold miss evicts the least recently used entry, enters at the
// eviction end, and so is the next to go; it never evicts itself, and
// the keys in repeated use stay resident.
func TestLRUGetColdEvictsLRUNeverItself(t *testing.T) {
	c := NewLRU[int, int](3)
	fills := map[int]int{}
	fill := func(k int) func() int { return func() int { fills[k]++; return k * 10 } }
	c.Get(1, fill(1))
	c.Get(2, fill(2))
	c.Get(3, fill(3))                            // recency: [3 2 1]
	if got := c.GetCold(4, fill(4)); got != 40 { // evicts 1 → [3 2 4]
		t.Fatalf("GetCold(4) = %d, want 40", got)
	}
	c.GetCold(5, fill(5)) // evicts 4, not 2 → [3 2 5]
	c.GetCold(6, fill(6)) // evicts 5 → [3 2 6]
	if _, _, ev := c.Stats(); ev != 3 {
		t.Fatalf("evictions = %d, want 3", ev)
	}
	if hot, cold := c.Evictions(); hot != 1 || cold != 2 { // 1 was read by Get; 4 and 5 only cold
		t.Fatalf("evictions = %d hot, %d cold; want 1 and 2", hot, cold)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want capacity 3", c.Len())
	}
	c.Get(2, fill(2))
	c.Get(3, fill(3))
	c.Get(6, fill(6))
	c.Get(1, fill(1)) // evicts the LRU of [6 3 2]: 2
	c.Get(4, fill(4)) // evicts 3
	want := map[int]int{1: 2, 2: 1, 3: 1, 4: 2, 5: 1, 6: 1}
	for k, n := range want {
		if fills[k] != n {
			t.Errorf("key %d filled %d times, want %d (fills %v)", k, fills[k], n, fills)
		}
	}

	// Capacity 1: a cold miss evicts the resident key, not itself.
	one := NewLRU[int, int](1)
	one.Get(1, func() int { return 1 })
	if got := one.GetCold(2, func() int { return 2 }); got != 2 {
		t.Fatalf("GetCold(2) = %d, want 2", got)
	}
	if got := one.GetCold(2, func() int { return -1 }); got != 2 {
		t.Fatalf("cold key 2 did not stay resident: refilled to %d", got)
	}
}

// TestLRUGetColdHitKeepsRecency checks a cold hit shares the resident
// value without touching recency: the key it read is still the next to
// be evicted.
func TestLRUGetColdHitKeepsRecency(t *testing.T) {
	c := NewLRU[int, int](2)
	c.Get(1, func() int { return 10 })
	c.Get(2, func() int { return 20 }) // recency: [2 1]
	if got := c.GetCold(1, func() int { return -1 }); got != 10 {
		t.Fatalf("GetCold(1) = %d, want the resident 10", got)
	}
	c.Get(3, func() int { return 30 }) // must evict 1, still the LRU
	if got := c.Get(2, func() int { return -2 }); got != 20 {
		t.Fatalf("key 2 was evicted (refilled to %d); the cold hit moved key 1", got)
	}
	if got := c.Get(1, func() int { return 11 }); got != 11 {
		t.Fatalf("key 1 stayed resident (%d); a cold hit changed its recency", got)
	}
	if hits, misses, _ := c.Stats(); hits != 2 || misses != 4 {
		t.Fatalf("stats = (%d hits, %d misses); want (2, 4)", hits, misses)
	}
}

// TestLRUGetColdSingleflight checks concurrent cold reads of one key
// share one fill, as Get's callers do.
func TestLRUGetColdSingleflight(t *testing.T) {
	c := NewLRU[string, int](4)
	var fills atomic.Int64
	var wg sync.WaitGroup
	const goroutines = 48
	results := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g] = c.GetCold("k", func() int {
				fills.Add(1)
				time.Sleep(2 * time.Millisecond) // widen the race window
				return 9
			})
		}()
	}
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("fill ran %d times, want 1", n)
	}
	for g, v := range results {
		if v != 9 {
			t.Fatalf("goroutine %d saw %d, want 9", g, v)
		}
	}
}

// TestLRUCapacityNormalization checks degenerate capacities.
func TestLRUCapacityNormalization(t *testing.T) {
	c := NewLRU[int, int](0)
	if c.Cap() != 1 {
		t.Fatalf("Cap = %d, want 1", c.Cap())
	}
	c.Get(1, func() int { return 1 })
	c.Get(2, func() int { return 2 })
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}
