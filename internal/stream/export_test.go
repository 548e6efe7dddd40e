package stream

import (
	"repro/internal/apnic"
	"repro/internal/dates"
)

// Counts returns one retained day's raw per-AS counts in (CC, ASN)
// order, or nil for a day outside the window: the accumulator state the
// estimator tests check directly.
func (e *RollingEstimator) Counts(d dates.Date) []apnic.ASCount {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.countsLocked(d.DayNumber())
}
