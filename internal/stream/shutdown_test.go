package stream

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/dates"
)

// notifySink hands every published batch to the test over a channel (so
// the test can throttle the pipeline and pick the cancellation point)
// and records Close ordering.
type notifySink struct {
	out        chan Batch
	closes     atomic.Int64
	closedLast atomic.Bool // set by Close, cleared by any Publish after it
}

func (s *notifySink) Publish(b Batch) error {
	if s.closes.Load() != 0 {
		s.closedLast.Store(false)
	}
	s.out <- Batch{Seq: b.Seq, Imps: append([]Impression(nil), b.Imps...)}
	return nil
}

func (s *notifySink) Close() error {
	s.closes.Add(1)
	s.closedLast.Store(true)
	return nil
}

// TestShutdownDrainHammer cancels a running pipeline at many different
// points and, every time, demands the exactly-once drain contract:
//
//   - the publisher sees contiguous batch sequence numbers 1..N, each
//     exactly once, in order;
//   - every accepted event is accounted for: accepted == filtered +
//     published (no publish failures here), with no impression lost or
//     duplicated between admission and the publisher;
//   - Close runs exactly once, after the last batch.
//
// The source is unbounded, so the pipeline can only stop via the
// cancel; staggering when the cancel lands (by consuming a varying
// number of batches first) moves the shutdown point across all three
// stages. Run under -race this doubles as the concurrency proof.
func TestShutdownDrainHammer(t *testing.T) {
	d := dates.MustParse("2024-04-21")
	for iter := 0; iter < 20; iter++ {
		iter := iter
		t.Run(fmt.Sprintf("iter%02d", iter), func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			// Unbounded source: pre-resolved events forever, until the
			// admission edge reports shutdown.
			src := sourceFunc(func(ctx context.Context, emit func(Event) bool) error {
				for i := 0; ; i++ {
					ev := preEvent(d, uint32(i%13+1), 1)
					if i%11 == 0 {
						ev = Event{Day: d} // raw record → filtered (no enricher)
					}
					if !emit(ev) {
						return nil
					}
				}
			})

			published := make(chan Batch, 4)
			sink := &notifySink{out: published}
			p, err := New(Config{
				Source:    src,
				Publisher: sink,
				MaxBatch:  8,
			})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- p.Run(ctx) }()

			// Let `iter` batches through, then cancel mid-flight — each
			// iteration lands the cancel at a different pipeline state.
			var seen []Batch
			for len(seen) < iter {
				seen = append(seen, <-published)
			}
			cancel()
			// Keep draining while Run finishes, then collect the tail.
			for {
				select {
				case b := <-published:
					seen = append(seen, b)
					continue
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				}
				break
			}
			for {
				select {
				case b := <-published:
					seen = append(seen, b)
					continue
				default:
				}
				break
			}

			var imps int64
			for i, b := range seen {
				if b.Seq != int64(i+1) {
					t.Fatalf("batch %d has seq %d: sequence not contiguous/unique", i, b.Seq)
				}
				imps += int64(len(b.Imps))
			}
			st := p.Stats()
			checkLedger(t, st)
			if st.Accepted != st.Filtered+st.Published {
				t.Fatalf("drain ledger broken: accepted %d != filtered %d + published %d",
					st.Accepted, st.Filtered, st.Published)
			}
			if st.PublishFailed != 0 {
				t.Fatalf("unexpected publish failures: %+v", st)
			}
			if imps != st.Published {
				t.Fatalf("publisher saw %d impressions, counters say %d", imps, st.Published)
			}
			if int64(len(seen)) != st.Batches {
				t.Fatalf("publisher saw %d batches, counters say %d", len(seen), st.Batches)
			}
			if got := sink.closes.Load(); got != 1 {
				t.Fatalf("Close called %d times, want 1", got)
			}
			if !sink.closedLast.Load() {
				t.Fatal("Close ran before the last Publish")
			}
		})
	}
}

// TestCancelBeforeStart drains cleanly even when the context is already
// cancelled: nothing admitted, Close still runs.
func TestCancelBeforeStart(t *testing.T) {
	d := dates.MustParse("2024-04-21")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sink := &recordingSink{}
	src := sourceFunc(func(ctx context.Context, emit func(Event) bool) error {
		for i := 0; ; i++ {
			if !emit(preEvent(d, 1, 1)) {
				return nil
			}
		}
	})
	p, err := New(Config{Source: src, Publisher: sink})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, p.Stats())
	st := p.Stats()
	if st.Accepted != 0 || st.Published != 0 {
		t.Fatalf("pre-cancelled run admitted work: %+v", st)
	}
	if sink.closed != 1 {
		t.Fatalf("Close called %d times, want 1", sink.closed)
	}
}
