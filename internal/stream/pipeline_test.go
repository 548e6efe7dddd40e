package stream

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cdnlog"
	"repro/internal/dates"
	"repro/internal/orgs"
)

// sourceFunc adapts a closure to the Source interface.
type sourceFunc func(ctx context.Context, emit func(Event) bool) error

func (f sourceFunc) Run(ctx context.Context, emit func(Event) bool) error { return f(ctx, emit) }

// recordingSink captures every published batch and counts Close calls.
type recordingSink struct {
	mu      sync.Mutex
	batches []Batch
	closed  int
	first   chan struct{} // closed on first Publish, if non-nil
	gate    chan struct{} // Publish blocks on this once, if non-nil
}

func (r *recordingSink) Publish(b Batch) error {
	if r.gate != nil {
		<-r.gate
		r.gate = nil
	}
	r.mu.Lock()
	imps := append([]Impression(nil), b.Imps...)
	r.batches = append(r.batches, Batch{Seq: b.Seq, Imps: imps})
	if r.first != nil {
		close(r.first)
		r.first = nil
	}
	r.mu.Unlock()
	return nil
}

func (r *recordingSink) Close() error {
	r.mu.Lock()
	r.closed++
	r.mu.Unlock()
	return nil
}

func (r *recordingSink) impressions() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, b := range r.batches {
		n += int64(len(b.Imps))
	}
	return n
}

// checkLedger asserts the drain ledger of a pipeline whose Run has
// returned: every accepted event was filtered or delivered to the
// publisher, and nothing was accepted that was not emitted.
func checkLedger(t *testing.T, st Stats) {
	t.Helper()
	if st.Accepted != st.Filtered+st.Published+st.PublishFailed || st.Emitted < st.Accepted {
		t.Fatalf("drain ledger broken: accepted %d != filtered %d + published %d + publish_failed %d (emitted %d)",
			st.Accepted, st.Filtered, st.Published, st.PublishFailed, st.Emitted)
	}
}

func preEvent(day dates.Date, asn uint32, weight int64) Event {
	return Event{Day: day, Pre: &Impression{Day: day, CC: "FR", ASN: asn, Weight: weight}}
}

// TestBlockPolicy wedges the publisher behind a gate so every queue
// fills, and verifies the lossless contract: the source is held back
// rather than losing events, and once the publisher is released every
// emitted event is accepted and published exactly once.
func TestBlockPolicy(t *testing.T) {
	const total = 1000
	d := dates.MustParse("2024-04-21")
	gate := make(chan struct{})
	sink := &recordingSink{gate: gate}

	src := sourceFunc(func(ctx context.Context, emit func(Event) bool) error {
		for i := 0; i < total; i++ {
			if !emit(preEvent(d, uint32(i%7+1), 1)) {
				break
			}
		}
		return nil
	})

	p, err := New(Config{
		Source:    src,
		Publisher: sink,
		OnFull:    Block,
		MaxBatch:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()

	// With the publisher wedged on its first batch, the enrich stage
	// stalls inside its first block (the batches queue is full) and the
	// events queue fills behind it; the source then waits to hand on its
	// next full block instead of shedding. Admission stops at exactly
	// those blocks.
	pressure := int64((1 + queueBlocks) * blockLen)
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().Accepted < pressure {
		if time.Now().After(deadline) {
			t.Fatalf("queues never filled: %+v", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if st := p.Stats(); st.Accepted != pressure || st.Emitted >= total || st.Published != 0 {
		t.Fatalf("source not held back at %d accepted events by the wedged publisher: %+v", pressure, st)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	checkLedger(t, p.Stats())

	st := p.Stats()
	if st.Emitted != total || st.Accepted != total || st.Published != total {
		t.Fatalf("lossless ledger broken: want emitted = accepted = published = %d, got %+v", total, st)
	}
	if st.Filtered != 0 || st.PublishFailed != 0 {
		t.Fatalf("drain ledger broken: %+v", st)
	}
	if got := sink.impressions(); got != st.Published {
		t.Fatalf("publisher saw %d impressions, counters say %d", got, st.Published)
	}
	if sink.closed != 1 {
		t.Fatalf("Close called %d times, want 1", sink.closed)
	}
}

// TestEnricherMatchesAggregator replays one day of sampled records both
// through the batch cdnlog.Aggregator and through the streaming
// pipeline's CDNEnricher, and demands identical attribution: the same
// per-(country, org) request and byte totals, and the same drop
// counts per reason.
func TestEnricherMatchesAggregator(t *testing.T) {
	w := testWorld()
	s := cdnlog.NewSampler(w, 7)
	db := w.RoutingDB()
	d := dates.MustParse("2024-04-21")
	const perOrg, bots = 4, 50
	countries := []string{"FR", "JP"}

	agg := cdnlog.NewAggregator(db, w.Registry, bots)
	for _, cc := range countries {
		s.EachDayRecord(cc, d, perOrg, func(rec cdnlog.Record) bool {
			agg.Add(rec)
			return true
		})
	}

	sink := &recordingSink{}
	p, err := New(Config{
		Source:    &SamplerSource{Sampler: s, Countries: countries, From: d, Days: 1, PerOrg: perOrg},
		Enrich:    &CDNEnricher{DB: db, Registry: w.Registry, BotThreshold: bots},
		Publisher: sink,
		MaxBatch:  128,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, p.Stats())

	// Fold published impressions to (country, org) through the same
	// registry the aggregator used.
	type pairSum struct{ reqs, bytes int64 }
	got := map[orgs.CountryOrg]*pairSum{}
	for _, b := range sink.batches {
		for _, imp := range b.Imps {
			org, ok := w.Registry.ByASN(imp.ASN)
			if !ok {
				t.Fatalf("published impression with unassigned ASN %d", imp.ASN)
			}
			key := orgs.CountryOrg{Country: imp.CC, Org: org.ID}
			ps := got[key]
			if ps == nil {
				ps = &pairSum{}
				got[key] = ps
			}
			ps.reqs += imp.Weight
			ps.bytes += imp.Bytes
		}
	}

	var wantPairs int
	var wantBots int64
	for key, st := range agg.Stats() {
		wantBots += st.Bots
		if st.Requests == 0 {
			continue // all-bot pair: the stream publishes nothing for it
		}
		wantPairs++
		ps := got[key]
		if ps == nil {
			t.Fatalf("pair %v missing from stream output", key)
		}
		if ps.reqs != st.Requests || ps.bytes != st.Bytes {
			t.Fatalf("pair %v: stream (%d reqs, %d bytes) != batch (%d, %d)",
				key, ps.reqs, ps.bytes, st.Requests, st.Bytes)
		}
	}
	if len(got) != wantPairs {
		t.Fatalf("stream produced %d pairs, batch %d", len(got), wantPairs)
	}

	if v := p.filtered[ReasonBot].Value(); v != wantBots {
		t.Fatalf("filtered{bot} = %d, aggregator counted %d", v, wantBots)
	}
	if v := p.filtered[ReasonUnrouted].Value(); v != agg.Unrouted() {
		t.Fatalf("filtered{unrouted} = %d, aggregator counted %d", v, agg.Unrouted())
	}
	if v := p.filtered[ReasonUnassigned].Value(); v != agg.Unassigned() {
		t.Fatalf("filtered{unassigned} = %d, aggregator counted %d", v, agg.Unassigned())
	}
}

// TestNoEnricherDropsRawRecords pins the nil-enricher rule: raw records
// are unresolvable, pre-resolved impressions still pass.
func TestNoEnricherDropsRawRecords(t *testing.T) {
	d := dates.MustParse("2024-04-21")
	sink := &recordingSink{}
	src := sourceFunc(func(ctx context.Context, emit func(Event) bool) error {
		emit(Event{Day: d}) // raw record, no enricher
		emit(preEvent(d, 1, 2))
		return nil
	})
	p, err := New(Config{Source: src, Publisher: sink})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, p.Stats())
	st := p.Stats()
	if st.Filtered != 1 || p.filtered[ReasonUnresolvable].Value() != 1 {
		t.Fatalf("want 1 unresolvable drop, got %+v", st)
	}
	if got := sink.impressions(); got != 1 {
		t.Fatalf("published %d impressions, want 1", got)
	}
}

type failingSink struct{ err error }

func (f failingSink) Publish(Batch) error { return f.err }
func (f failingSink) Close() error        { return nil }

// TestPublisherErrorsAreCountedNotFatal drives batches into a sink that
// rejects every Publish: Run survives (a log pipeline outlives its
// sink's bad moments), and PublishFailed accounts for every impression.
func TestPublisherErrorsAreCountedNotFatal(t *testing.T) {
	d := dates.MustParse("2024-04-21")
	src := sourceFunc(func(ctx context.Context, emit func(Event) bool) error {
		for i := 0; i < 10; i++ {
			if !emit(preEvent(d, uint32(i+1), 1)) {
				break
			}
		}
		return nil
	})
	p, err := New(Config{Source: src, Publisher: failingSink{err: errors.New("sink down")}, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if runErr := p.Run(context.Background()); runErr != nil {
		t.Fatalf("publish errors must not be fatal, Run returned %v", runErr)
	}
	checkLedger(t, p.Stats())
	st := p.Stats()
	if st.PublishFailed != 10 || st.Published != 0 {
		t.Fatalf("want all 10 impressions counted failed: %+v", st)
	}
	if st.Published+st.PublishFailed != st.Accepted {
		t.Fatalf("ledger broken with failing sink: %+v", st)
	}
}

// TestConfigValidation rejects incomplete configs and any admission
// policy but Block.
func TestConfigValidation(t *testing.T) {
	src := sourceFunc(func(context.Context, func(Event) bool) error { return nil })
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"missing source", Config{Publisher: &recordingSink{}}, "Source"},
		{"missing publisher", Config{Source: src}, "Publisher"},
		{"unknown policy", Config{Source: src, Publisher: &recordingSink{}, OnFull: Policy(1)}, "OnFull"},
	} {
		if _, err := New(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}
