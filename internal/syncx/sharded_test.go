package syncx

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func identHash(k int) uint64 { return uint64(k) }

// TestShardedSingleflight hammers a key set spread across shards from
// many goroutines and checks every key filled exactly once and every
// caller saw the fill's value.
func TestShardedSingleflight(t *testing.T) {
	c := NewSharded[int, int](identHash)
	const keys = 64
	fills := make([]atomic.Int64, keys)
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g*7 + i) % keys
				if got := c.Get(k, func() int { fills[k].Add(1); return k * 3 }); got != k*3 {
					t.Errorf("Get(%d) = %d, want %d", k, got, k*3)
					return
				}
			}
		}()
	}
	wg.Wait()
	for k := range fills {
		if n := fills[k].Load(); n != 1 {
			t.Errorf("key %d filled %d times, want 1", k, n)
		}
	}
	if c.Len() != keys {
		t.Errorf("Len = %d, want %d", c.Len(), keys)
	}
}

// TestShardedOneKeyManyWaiters checks the per-key singleflight contract
// survives a deliberately widened race window.
func TestShardedOneKeyManyWaiters(t *testing.T) {
	c := NewSharded[string, int](func(s string) uint64 { return uint64(len(s)) })
	var fills atomic.Int64
	var wg sync.WaitGroup
	const goroutines = 48
	results := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g] = c.Get("key", func() int {
				fills.Add(1)
				time.Sleep(2 * time.Millisecond)
				return 11
			})
		}()
	}
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("fill ran %d times, want 1", n)
	}
	for g, v := range results {
		if v != 11 {
			t.Fatalf("goroutine %d saw %d, want 11", g, v)
		}
	}
}

// TestShardedDistinctShardsParallel proves fills landing on different
// shards overlap: each fill blocks until the other has started.
func TestShardedDistinctShardsParallel(t *testing.T) {
	c := NewSharded[int, int](identHash)
	started := make(chan int, 2)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ { // keys 0 and 1 hash to different shards
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Get(k, func() int {
				started <- k
				<-release
				return k
			})
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("cross-shard fills serialized: second fill never started")
		}
	}
	close(release)
	wg.Wait()
}

// TestShardedShardCount checks keys spread over all sixteen shards: with
// the identity hash, keys 0..15 land one per shard and key 16 shares key
// 0's.
func TestShardedShardCount(t *testing.T) {
	c := NewSharded[int, int](identHash)
	for k := 0; k <= shardCount; k++ {
		c.Get(k, func() int { return k })
	}
	for i := range c.shards {
		want := 1
		if i == 0 {
			want = 2
		}
		if n := c.shards[i].Len(); n != want {
			t.Errorf("shard %d holds %d keys, want %d", i, n, want)
		}
	}
}
