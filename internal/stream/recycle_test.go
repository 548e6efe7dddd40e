package stream

import (
	"context"
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/cdnlog"
	"repro/internal/dates"
	"repro/internal/netdb"
	"repro/internal/orgs"
)

// stableSink checks the Publisher contract from the publisher's side: a
// batch's impressions stay as they were handed over until Publish
// returns, even while the enrich stage runs ahead into recycled buffers.
type stableSink struct {
	t       *testing.T
	next    uint32 // ASN the next impression must carry
	batches int
}

func (s *stableSink) Publish(b Batch) error {
	snap := slices.Clone(b.Imps)
	for _, imp := range snap {
		if imp.ASN != s.next {
			s.t.Errorf("batch %d: impression ASN %d, want %d (out of order or overwritten)", b.Seq, imp.ASN, s.next)
			s.next = imp.ASN
		}
		s.next++
	}
	s.batches++
	// Give the enrich stage time to fill every queued batch, and with
	// them every free buffer, before checking this one again.
	if s.batches%4 == 0 {
		time.Sleep(time.Millisecond)
	}
	if !slices.Equal(b.Imps, snap) {
		s.t.Errorf("batch %d changed while Publish still held it", b.Seq)
	}
	return nil
}

func (s *stableSink) Close() error { return nil }

// TestBatchStableDuringPublish pins the other half of buffer recycling:
// the pipeline hands a batch's buffer back to the enrich stage only
// after Publish has returned, never while the publisher reads it.
func TestBatchStableDuringPublish(t *testing.T) {
	const total = 20_000
	d := dates.MustParse("2024-04-21")
	src := sourceFunc(func(ctx context.Context, emit func(Event) bool) error {
		for i := 0; i < total; i++ {
			if !emit(preEvent(d, uint32(i), 1)) {
				break
			}
		}
		return nil
	})
	sink := &stableSink{t: t}
	p, err := New(Config{Source: src, Publisher: sink, MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, p.Stats())
	if sink.next != total {
		t.Fatalf("publisher saw %d impressions, want %d", sink.next, total)
	}
}

// TestPipelineAllocsIndependentOfEvents is the ingest allocation budget:
// a pipeline whose source, enricher and sink allocate nothing per event
// allocates the same at 64,000 events as at 6,400. Without recycling it
// would allocate one more event block per 64 events and one more
// impression buffer per batch.
func TestPipelineAllocsIndependentOfEvents(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomizes scheduling, so the buffer count varies")
	}
	db := netdb.NewDB()
	if err := db.Announce(netip.MustParsePrefix("10.0.0.0/8"), netdb.Route{ASN: 64500, RegisteredCountry: "FR", TrueCountry: "FR"}); err != nil {
		t.Fatal(err)
	}
	reg := orgs.NewRegistry()
	if err := reg.Add(&orgs.Org{ID: "FR-ACC-01", Type: orgs.FixedAccess, Home: "FR", ASNs: []uint32{64500}}); err != nil {
		t.Fatal(err)
	}
	enr := &CDNEnricher{DB: db, Registry: reg, BotThreshold: 50}
	d := dates.MustParse("2024-04-21")
	ev := Event{Day: d, Rec: cdnlog.Record{
		Client: netip.MustParseAddr("10.1.2.3"), Bytes: 1500, BotScore: 90, UserAgent: "Mozilla/5.0",
	}}
	gen := newTestGen()

	allocs := func(events int) float64 {
		return testing.AllocsPerRun(5, func() {
			src := sourceFunc(func(ctx context.Context, emit func(Event) bool) error {
				for i := 0; i < events && emit(ev); i++ {
				}
				return nil
			})
			p, err := New(Config{Source: src, Enrich: enr, Publisher: &EstimatorSink{Est: NewRollingEstimator(gen)}})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if st := p.Stats(); st.Published != int64(events) {
				t.Fatalf("published %d of %d events: %+v", st.Published, events, st)
			}
		})
	}
	// A run may allocate every buffer that can exist at once before the
	// free lists start to return them, and a short run may need fewer.
	const slack = queueBlocks + 2 + batchQueueCap + 2
	small, large := allocs(6_400), allocs(64_000)
	t.Logf("%v allocs at 6,400 events, %v at 64,000", small, large)
	if large > small+slack {
		t.Errorf("%v allocs at 64,000 events vs %v at 6,400; the pipeline allocates per event or per batch", large, small)
	}
}
