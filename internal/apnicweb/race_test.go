//go:build race

package apnicweb

// raceEnabled reports whether the race detector is on. Under race,
// sync.Pool deliberately drops items at random, so exact allocation
// counts are meaningless and the allocation budget skips itself.
const raceEnabled = true
