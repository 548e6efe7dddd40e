//go:build race

package stream

// raceEnabled reports whether the race detector is on. Under race the
// scheduler is randomized, so how many buffers a run allocates before
// recycling takes over varies from run to run, and the allocation
// guard skips itself.
const raceEnabled = true
