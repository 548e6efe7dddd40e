package stream

// Publisher consumes the pipeline's output. Publish is called from one
// goroutine, once per batch, in sequence order; Close runs after the
// last batch, even on cancelled runs.
//
// Publish must not retain b.Imps after it returns: the pipeline reuses
// the buffer for a later batch. A publisher that keeps impressions
// copies them.
type Publisher interface {
	Publish(Batch) error
	Close() error
}

// EstimatorSink publishes batches into a rolling estimator: the
// in-memory estimate sink behind the /v1/live/ endpoint.
type EstimatorSink struct {
	Est *RollingEstimator
}

// Publish feeds every impression to the estimator.
func (s *EstimatorSink) Publish(b Batch) error {
	s.Est.ObserveBatch(b)
	return nil
}

// Close is a no-op; the estimator keeps serving after the stream ends.
func (s *EstimatorSink) Close() error { return nil }
