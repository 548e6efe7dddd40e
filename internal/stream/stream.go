// Package stream turns the batch cdnlog layer into a continuous
// ingestion pipeline, in the beats mold: a replayable source emits raw
// log events, an enrich stage resolves them against the world's routing
// database, drops bots and groups the survivors into size-bounded
// batches, and a publisher consumes the batches — connected by bounded
// channels.
//
// Stage graph:
//
//	Source ──emit──▶ [events] ──▶ Enrich+Batch ──▶ [batches] ──▶ Publish
//	                 bounded       drops counted,    bounded       sink
//	                 blocking,     flush on size
//	                 blocks of 64
//
// The source's events cross to the enrich stage in blocks of blockLen
// (64), so a channel operation is paid per block, not per event. The
// block being filled lives on the source goroutine; it is handed on when
// it fills and, partial, when the source returns.
//
// A run allocates a fixed number of buffers, not some per event. The
// enrich stage clears each block it has consumed and hands it back to
// the source through a free list, and the Run goroutine hands each
// batch's Imps buffer back to the enrich stage once Publish has
// returned. That is why a Publisher must not retain Batch.Imps.
//
// The pipeline is lossless. Handing on a full block blocks until the
// events queue has space, so the source runs at the pipeline's pace,
// and every later edge blocks too: once an event is accepted it is never
// dropped, so after a graceful drain
//
//	accepted == filtered + published + publish_failed
//
// holds exactly (the reconciliation tests pin it).
//
// Shutdown is a drain, not an abort: cancelling the Run context stops
// the source, the source's last block is handed on, then each stage
// closes its output after exhausting its input, so every accepted event
// reaches the publisher exactly once before Run returns.
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

	"repro/internal/obsv"
)

// Policy names what the admission edge does when the events queue is
// full. Block is the only one.
type Policy int

// Block makes emit wait for queue space: lossless, the source runs at
// the pipeline's pace.
const Block Policy = 0

const (
	blockLen      = 64 // events per source→enrich handoff
	queueBlocks   = 4  // capacity of the events channel, in blocks
	batchQueueCap = 8  // capacity of the batches channel
)

// Config parameterizes one pipeline.
type Config struct {
	Source    Source
	Enrich    Enricher  // nil: only pre-resolved events pass; raw records drop as "unresolvable"
	Publisher Publisher // required

	// OnFull is the admission policy at the source edge; New rejects
	// anything but Block.
	OnFull Policy

	// MaxBatch flushes a batch when it reaches this many impressions
	// (default 512). The last, partial batch flushes when the input
	// drains.
	MaxBatch int

	// Metrics, when non-nil, receives the per-stage counters and queue
	// depth gauges (stream_* series). A nil registry records to a
	// private one; Stats works either way.
	Metrics *obsv.Registry
}

// Stats is a point-in-time snapshot of the pipeline ledger.
type Stats struct {
	Emitted       int64 // events the source offered to the admission edge
	Accepted      int64 // events admitted into the pipeline
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
	if cfg.OnFull != Block {
		return nil, fmt.Errorf("stream: unknown OnFull policy %d (only Block)", cfg.OnFull)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 512
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obsv.NewRegistry()
	}
	p := &Pipeline{
		cfg:           cfg,
		accepted:      reg.Counter("stream_accepted_total"),
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
// atomic, the set is not), and Emitted and Accepted leave out the events
// of the block the source is still filling.
func (p *Pipeline) Stats() Stats {
	return Stats{
		Emitted:       p.emitted.Load(),
		Accepted:      p.accepted.Value(),
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
	events := make(chan []Event, queueBlocks)
	batches := make(chan Batch, batchQueueCap)
	// Free lists, each large enough to hold every buffer of its kind
	// that can exist at once, so a recycled buffer is never dropped: a
	// block is being filled, queued, or being enriched; an impression
	// buffer is pending, queued, or being published.
	freeBlocks := make(chan []Event, queueBlocks+2)
	freeImps := make(chan []Impression, batchQueueCap+2)

	if p.cfg.Metrics != nil {
		// Counted in events; every queued block but the source's last
		// is full.
		p.cfg.Metrics.GaugeFunc(`stream_queue_depth{stage="events"}`, func() float64 { return float64(len(events) * blockLen) })
		p.cfg.Metrics.GaugeFunc(`stream_queue_depth{stage="batches"}`, func() float64 { return float64(len(batches)) })
	}

	// Source. The emit closure is the admission edge: it fills a block,
	// hands it on when full — blocking until the events queue has
	// space — and reports shutdown to the source by returning false.
	// Events are counted emitted and accepted as their block is handed
	// on; an emit refused after cancellation counts emitted only.
	srcErr := make(chan error, 1)
	go func() {
		defer close(events)
		done := ctx.Done()
		block := take(freeBlocks, blockLen)
		handOff := func() {
			p.emitted.Add(int64(len(block)))
			p.accepted.Add(int64(len(block)))
			block = take(freeBlocks, blockLen)
		}
		err := p.cfg.Source.Run(ctx, func(ev Event) bool {
			select {
			case <-done:
				p.emitted.Add(1)
				return false
			default:
			}
			block = append(block, ev)
			if len(block) < blockLen {
				return true
			}
			select {
			case events <- block:
				handOff()
				return true
			case <-done:
				return false // the full block is handed on below
			}
		})
		// The source has returned: its last block is accepted work.
		// Enrich drains until the channel closes, so this send ignores
		// ctx and cannot deadlock.
		if len(block) > 0 {
			events <- block
			handOff()
		}
		srcErr <- err
	}()

	// Enrich and batch. Downstream edges deliberately ignore ctx: once
	// an event is accepted it must reach the publisher (the drain
	// guarantee), and every consumer runs until its input closes, so
	// blocking sends cannot deadlock.
	go func() {
		defer close(batches)
		p.enrichAndBatch(events, batches, freeBlocks, freeImps)
	}()

	// Publish, on the Run goroutine: when the batches channel closes the
	// drain is complete. The publisher does not retain a batch's Imps
	// after Publish returns, so the buffer goes back to the enrich stage.
	for b := range batches {
		p.batches.Inc()
		if err := p.cfg.Publisher.Publish(b); err != nil {
			p.publishFailed.Add(int64(len(b.Imps)))
		} else {
			p.published.Add(int64(len(b.Imps)))
		}
		recycle(freeImps, b.Imps)
	}
	err := <-srcErr
	if cerr := p.cfg.Publisher.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}

// enrich resolves one event, passing pre-resolved impressions straight
// through. An empty reason means accepted.
func (p *Pipeline) enrich(ev *Event) (Impression, string) {
	if ev.Pre != nil {
		return *ev.Pre, ""
	}
	if p.cfg.Enrich == nil {
		return Impression{}, ReasonUnresolvable
	}
	return p.cfg.Enrich.Enrich(*ev)
}

// enrichAndBatch resolves every event of every block, counts the drops,
// and groups the survivors into batches of at most MaxBatch, flushing
// the partial tail when the input closes. Each consumed block is cleared,
// so it pins no record, and handed back to the source; each batch
// starts in a buffer the publisher has handed back, if there is one.
func (p *Pipeline) enrichAndBatch(in <-chan []Event, out chan<- Batch, freeBlocks chan []Event, freeImps chan []Impression) {
	var seq int64
	pending := take(freeImps, p.cfg.MaxBatch)
	flush := func() {
		seq++
		out <- Batch{Seq: seq, Imps: pending}
		pending = take(freeImps, p.cfg.MaxBatch)
	}
	for block := range in {
		for i := range block {
			imp, reason := p.enrich(&block[i])
			if reason != "" {
				p.filteredTotal.Add(1)
				p.filtered[reason].Inc()
				continue
			}
			pending = append(pending, imp)
			if len(pending) >= p.cfg.MaxBatch {
				flush()
			}
		}
		clear(block)
		recycle(freeBlocks, block)
	}
	if len(pending) > 0 {
		flush()
	}
}

// take returns an empty buffer from a free list, or a new one of
// capacity n if none is free.
func take[T any](free chan []T, n int) []T {
	select {
	case buf := <-free:
		return buf
	default:
		return make([]T, 0, n)
	}
}

// recycle returns a consumed buffer, emptied, to its free list. The
// free lists are sized so this never drops one; if it ever did, the
// buffer would only be collected.
func recycle[T any](free chan []T, buf []T) {
	select {
	case free <- buf[:0]:
	default:
	}
}
