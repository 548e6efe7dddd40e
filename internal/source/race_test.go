//go:build race

package source

// raceEnabled reports whether the race detector is on. Under race,
// sync.Pool deliberately drops items at random, so the text encoders'
// pooled buffers re-allocate and exact alloc counts are meaningless —
// the allocation guard skips itself.
const raceEnabled = true
