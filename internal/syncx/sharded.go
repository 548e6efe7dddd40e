package syncx

// Sharded is a singleflight Cache partitioned across independent shards
// so that high-frequency memoization (per-(country, day) scans hit from
// every experiment runner at once) does not serialize on one map mutex.
// Each shard is a Cache, so the per-key guarantees are unchanged: a fill
// runs at most once per key, concurrent callers for the same key share
// the single in-flight fill, and fills for distinct keys proceed in
// parallel. The caller supplies the key hash; only shard selection uses
// it, so a weak hash costs contention, never correctness.
type Sharded[K comparable, V any] struct {
	shards [shardCount]Cache[K, V]
	hash   func(K) uint64
}

// shardCount is the number of shards, a power of two so shard selection
// is a mask.
const shardCount = 16

// NewSharded returns a sharded singleflight cache. hash maps a key to its
// shard and must be deterministic.
func NewSharded[K comparable, V any](hash func(K) uint64) *Sharded[K, V] {
	return &Sharded[K, V]{hash: hash}
}

// Get returns the cached value for key, running fill at most once per key
// over the cache's lifetime (singleflight within the key's shard).
func (s *Sharded[K, V]) Get(key K, fill func() V) V {
	return s.shards[s.hash(key)%shardCount].Get(key, fill)
}

// Len reports how many keys have an entry across all shards (filled or
// in flight).
func (s *Sharded[K, V]) Len() int {
	total := 0
	for i := range s.shards {
		total += s.shards[i].Len()
	}
	return total
}
