package stream

import (
	"context"
	"testing"

	"repro/internal/cdnlog"
	"repro/internal/dates"
)

// BenchmarkIngestReplay replays one day of record-level cdnlog traffic
// for six countries through SamplerSource → CDNEnricher → batches →
// EstimatorSink at full speed: the live estimate's write side, User-Agent
// synthesis and routing lookups included. events/s counts emitted
// records.
func BenchmarkIngestReplay(b *testing.B) {
	w := testWorld()
	gen := newTestGen()
	sampler := cdnlog.NewSampler(w, 1)
	enr := &CDNEnricher{DB: w.RoutingDB(), Registry: w.Registry, BotThreshold: 50}
	d := dates.MustParse("2024-04-21")
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		p, err := New(Config{
			Source: &SamplerSource{Sampler: sampler, Countries: []string{"FR", "DE", "US", "BR", "JP", "IN"},
				From: d, Days: 1, PerOrg: 200},
			Enrich:    enr,
			Publisher: &EstimatorSink{Est: NewRollingEstimator(gen)},
			MaxBatch:  512,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		st := p.Stats()
		if st.Accepted != st.Filtered+st.Published+st.PublishFailed || st.PublishFailed != 0 {
			b.Fatalf("drain ledger broken: %+v", st)
		}
		events += st.Emitted
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
