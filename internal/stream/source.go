package stream

import (
	"context"

	"repro/internal/apnic"
	"repro/internal/cdnlog"
	"repro/internal/dates"
)

// Source feeds events into the pipeline. Run emits until the source is
// exhausted or emit returns false (pipeline shutdown); emit's return
// value is the only shutdown signal a source must honor. Sources are
// replayable: the same configuration emits the same event sequence.
type Source interface {
	Run(ctx context.Context, emit func(Event) bool) error
}

// SamplerSource replays the cdnlog sampler's synthetic request records
// as a live stream: for each day in [From, From+Days), every country's
// records in the sampler's deterministic order, as fast as the pipeline
// accepts them.
type SamplerSource struct {
	Sampler   *cdnlog.Sampler
	Countries []string
	From      dates.Date
	Days      int
	PerOrg    int // records per (country, org) pair per day
}

// Run replays the configured window. It never returns a non-nil error:
// the sampler is infallible.
func (s *SamplerSource) Run(ctx context.Context, emit func(Event) bool) error {
	for i := 0; i < s.Days; i++ {
		d := s.From.AddDays(i)
		for _, cc := range s.Countries {
			stop := false
			s.Sampler.EachDayRecord(cc, d, s.PerOrg, func(rec cdnlog.Record) bool {
				if !emit(Event{Day: d, Rec: rec}) {
					stop = true
					return false
				}
				return true
			})
			if stop {
				return nil
			}
		}
	}
	return nil
}

// CountSource replays the batch APNIC generator's raw per-AS window
// counts as pre-resolved impression events, chunked so one AS's count
// arrives as many events. Feeding these through the pipeline into a
// RollingEstimator must reproduce the batch report exactly — the
// convergence contract the equality tests pin.
type CountSource struct {
	Gen  *apnic.Generator
	From dates.Date
	Days int

	// Chunk caps one event's weight (default: the whole AS count in one
	// event). Smaller chunks exercise the estimator's aggregation.
	Chunk int64
}

// Run replays the configured window's counts.
func (s *CountSource) Run(ctx context.Context, emit func(Event) bool) error {
	for i := 0; i < s.Days; i++ {
		d := s.From.AddDays(i)
		for _, c := range s.Gen.DayCounts(d) {
			remaining := c.Samples
			for remaining > 0 {
				w := remaining
				if s.Chunk > 0 && w > s.Chunk {
					w = s.Chunk
				}
				remaining -= w
				imp := &Impression{Day: d, CC: c.CC, ASN: c.ASN, Weight: w}
				if !emit(Event{Day: d, Pre: imp}) {
					return nil
				}
			}
		}
	}
	return nil
}
