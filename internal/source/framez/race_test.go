//go:build race

package framez

// raceEnabled reports whether the race detector is on. Under race,
// sync.Pool deliberately drops items at random (its own race-hack), so
// the flate reader/writer pools re-allocate and exact alloc counts are
// meaningless — the alloc-budget test skips its pooled cases.
const raceEnabled = true
