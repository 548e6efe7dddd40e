package stream

import (
	"repro/internal/cdnlog"
	"repro/internal/dates"
)

// Event is one unit entering the pipeline: a raw log record tagged with
// the report day it belongs to, or (for replay sources that already know
// the attribution) a pre-resolved impression that bypasses the enrich
// stage.
type Event struct {
	Day dates.Date
	Rec cdnlog.Record

	// Pre, when non-nil, is a pre-resolved impression; the enrich stage
	// passes it through untouched. Replay sources use this to stream
	// already-attributed counts.
	Pre *Impression
}

// Impression is one enriched, attribution-resolved unit of ad sampling:
// Weight impressions credited to (CC, ASN) on Day. Record-level sources
// produce Weight 1; count-replay sources chunk larger weights.
type Impression struct {
	Day    dates.Date
	CC     string
	ASN    uint32
	Weight int64
	Bytes  int64
}

// Batch is one publisher delivery: a contiguous, in-order slice of
// accepted impressions with a 1-based sequence number. Publishers see
// every batch exactly once, in sequence order. Imps is the publisher's
// to read only until Publish returns; the pipeline then reuses it.
type Batch struct {
	Seq  int64
	Imps []Impression
}
