// Package stream turns the batch cdnlog layer into a continuous
// ingestion pipeline, in the beats mold: a replayable source emits raw
// log events, a filter/enrich stage resolves them against the world's
// routing database and drops bots, a size- and age-bounded batcher
// groups the survivors, and pluggable publishers consume the batches —
// all connected by bounded channels with explicit backpressure.
//
// Stage graph:
//
//	Source ──emit──▶ [events] ──▶ Enrich ──▶ [imps] ──▶ Batch ──▶ [batches] ──▶ Publish
//	                 bounded        drops      bounded    flush on    bounded       sink
//	                 block/shed     counted               size/age
//
// Backpressure is explicit at the admission edge: with Policy Block the
// source's emit blocks until the events queue has space (lossless, the
// source slows to the pipeline's pace); with Shed a full queue drops the
// event and counts it, keeping the source's schedule intact (the
// open-loop discipline). Every later edge blocks: once an event is
// accepted it is never dropped, so after a graceful drain
//
//	accepted == filtered + published + publish_failed
//
// holds exactly (the reconciliation tests pin it).
//
// Shutdown is a drain, not an abort: cancelling the Run context stops
// the source, then each stage closes its output after exhausting its
// input, so every accepted event reaches the publisher exactly once
// before Run returns.
//
// On top of the pipeline, RollingEstimator (estimator.go) maintains
// APNIC-style per-(country, AS) user estimates over a sliding window and
// converges exactly to the batch apnic.Generator once a day's stream is
// drained, because both assemble reports through the same
// apnic.AssembleReport code path.
package stream

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
)

// Policy selects what the admission edge does when the events queue is
// full.
type Policy int

const (
	// Block makes emit wait for queue space: lossless, the source runs
	// at the pipeline's pace (closed-loop backpressure).
	Block Policy = iota
	// Shed makes emit drop the event when the queue is full, counting
	// it, so the source's own schedule is never delayed (open-loop
	// backpressure; the loadgen discipline applied to ingestion).
	Shed
)

// Config parameterizes one pipeline.
type Config struct {
	Source    Source
	Enrich    Enricher  // nil: only pre-resolved events pass; raw records drop as "unresolvable"
	Publisher Publisher // required

	// QueueLen bounds the events and impressions channels (default 256).
	QueueLen int
	// BatchQueueLen bounds the batches channel (default 8).
	BatchQueueLen int
	// OnFull is the admission policy at the source edge.
	OnFull Policy

	// MaxBatch flushes a batch when it reaches this many impressions
	// (default 512). MaxAge, when > 0, also flushes a non-empty batch
	// this long after its first impression, so a quiet stream still
	// publishes promptly.
	MaxBatch int
	MaxAge   time.Duration

	// Clock paces the source and drives age-based flushes; nil means the
	// real clock. Tests inject manual clocks.
	Clock Clock

	// Metrics, when non-nil, receives the per-stage counters and queue
	// depth gauges (stream_* series). A nil registry records to a
	// private one; Stats works either way.
	Metrics *obsv.Registry
}

// Stats is a point-in-time snapshot of the pipeline ledger.
type Stats struct {
	Emitted       int64 // events the source offered to the admission edge
	Accepted      int64 // events admitted into the pipeline
	SourceShed    int64 // events dropped at the full events queue (Shed policy)
	Filtered      int64 // accepted events dropped by the enrich stage (all reasons)
	Batches       int64 // batches handed to the publisher
	Published     int64 // impressions inside successfully published batches
	PublishFailed int64 // impressions inside batches whose Publish errored
}

// FilterReasons is the bounded label set of the enrich stage's drops.
var FilterReasons = []string{ReasonBot, ReasonUnrouted, ReasonUnassigned, ReasonUnresolvable}

const (
	ReasonBot          = "bot"          // bot score below the threshold
	ReasonUnrouted     = "unrouted"     // client address matched no route
	ReasonUnassigned   = "unassigned"   // routed, but the AS is not in the org registry
	ReasonUnresolvable = "unresolvable" // raw record with no enricher configured
)

// Pipeline is one configured source→publisher chain. Build with New, run
// with Run; a pipeline is single-use.
type Pipeline struct {
	cfg Config

	emitted       atomic.Int64
	accepted      *obsv.Counter
	shed          *obsv.Counter
	filtered      map[string]*obsv.Counter
	filteredTotal atomic.Int64
	batches       *obsv.Counter
	published     *obsv.Counter
	publishFailed *obsv.Counter
}

// New validates the config and registers the pipeline's metric series.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("stream: config needs a Source")
	}
	if cfg.Publisher == nil {
		return nil, fmt.Errorf("stream: config needs a Publisher")
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 256
	}
	if cfg.BatchQueueLen <= 0 {
		cfg.BatchQueueLen = 8
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 512
	}
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obsv.NewRegistry()
	}
	p := &Pipeline{
		cfg:           cfg,
		accepted:      reg.Counter("stream_accepted_total"),
		shed:          reg.Counter("stream_shed_total"),
		filtered:      map[string]*obsv.Counter{},
		batches:       reg.Counter("stream_batches_total"),
		published:     reg.Counter("stream_published_records_total"),
		publishFailed: reg.Counter("stream_publish_failed_records_total"),
	}
	for _, reason := range FilterReasons {
		p.filtered[reason] = reg.Counter(obsv.Label("stream_filtered_total", "reason", reason))
	}
	return p, nil
}

// Stats snapshots the ledger. Totals are exact once Run has returned;
// mid-run they are a consistent-enough monitoring view (each counter is
// atomic, the set is not).
func (p *Pipeline) Stats() Stats {
	return Stats{
		Emitted:       p.emitted.Load(),
		Accepted:      p.accepted.Value(),
		SourceShed:    p.shed.Value(),
		Filtered:      p.filteredTotal.Load(),
		Batches:       p.batches.Value(),
		Published:     p.published.Value(),
		PublishFailed: p.publishFailed.Value(),
	}
}

// Run drives the pipeline until the source finishes or ctx is cancelled,
// then drains: every accepted event flows through enrich, batching and
// the publisher before Run returns. The publisher's Close always runs.
// The returned error is the source's, if any (publisher errors are
// counted per batch, not fatal — a log pipeline must outlive its sink's
// bad moments).
func (p *Pipeline) Run(ctx context.Context) error {
	events := make(chan Event, p.cfg.QueueLen)
	imps := make(chan Impression, p.cfg.QueueLen)
	batches := make(chan Batch, p.cfg.BatchQueueLen)

	if p.cfg.Metrics != nil {
		p.cfg.Metrics.GaugeFunc(`stream_queue_depth{stage="events"}`, func() float64 { return float64(len(events)) })
		p.cfg.Metrics.GaugeFunc(`stream_queue_depth{stage="impressions"}`, func() float64 { return float64(len(imps)) })
		p.cfg.Metrics.GaugeFunc(`stream_queue_depth{stage="batches"}`, func() float64 { return float64(len(batches)) })
	}

	// Source. The emit closure is the admission edge: it owns the
	// block-vs-shed decision and the accepted/shed ledger, and reports
	// shutdown to the source by returning false.
	srcErr := make(chan error, 1)
	go func() {
		defer close(events)
		srcErr <- p.cfg.Source.Run(ctx, func(ev Event) bool {
			p.emitted.Add(1)
			select {
			case <-ctx.Done():
				return false
			default:
			}
			switch p.cfg.OnFull {
			case Shed:
				select {
				case events <- ev:
					p.accepted.Inc()
				default:
					p.shed.Inc()
				}
				return true
			default: // Block
				select {
				case events <- ev:
					p.accepted.Inc()
					return true
				case <-ctx.Done():
					return false
				}
			}
		})
	}()

	// Enrich. Downstream edges deliberately ignore ctx: once an event is
	// accepted it must reach the publisher (the drain guarantee), and
	// every consumer runs until its input closes, so blocking sends
	// cannot deadlock.
	go func() {
		defer close(imps)
		for ev := range events {
			imp, reason := p.enrich(ev)
			if reason != "" {
				p.filteredTotal.Add(1)
				p.filtered[reason].Inc()
				continue
			}
			imps <- imp
		}
	}()

	// Batch.
	go func() {
		defer close(batches)
		p.batch(imps, batches)
	}()

	// Publish, on the Run goroutine: when the batches channel closes the
	// drain is complete.
	for b := range batches {
		p.batches.Inc()
		if err := p.cfg.Publisher.Publish(b); err != nil {
			p.publishFailed.Add(int64(len(b.Imps)))
		} else {
			p.published.Add(int64(len(b.Imps)))
		}
	}
	err := <-srcErr
	if cerr := p.cfg.Publisher.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}

// enrich resolves one event, passing pre-resolved impressions straight
// through. An empty reason means accepted.
func (p *Pipeline) enrich(ev Event) (Impression, string) {
	if ev.Pre != nil {
		return *ev.Pre, ""
	}
	if p.cfg.Enrich == nil {
		return Impression{}, ReasonUnresolvable
	}
	return p.cfg.Enrich.Enrich(ev)
}

// batch groups impressions into size- and age-bounded batches. The age
// timer arms when a batch gets its first impression and is read through
// the injected clock, so tests drive flushes deterministically.
func (p *Pipeline) batch(in <-chan Impression, out chan<- Batch) {
	var (
		seq     int64
		pending []Impression
		ageUp   <-chan time.Time
	)
	flush := func() {
		if len(pending) == 0 {
			return
		}
		seq++
		out <- Batch{Seq: seq, Imps: pending}
		pending = nil
		ageUp = nil
	}
	for {
		select {
		case imp, ok := <-in:
			if !ok {
				flush()
				return
			}
			if len(pending) == 0 && p.cfg.MaxAge > 0 {
				ageUp = p.cfg.Clock.After(p.cfg.MaxAge)
			}
			pending = append(pending, imp)
			if len(pending) >= p.cfg.MaxBatch {
				flush()
			}
		case <-ageUp:
			flush()
		}
	}
}
