package experiments

import (
	"time"

	"repro/internal/obsv"
	"repro/internal/syncx"
)

// RunRecord couples one runner's Result with its scheduling accounting.
// Result is deterministic in (seed, runner); Elapsed is wall time and
// varies run to run, which is why it lives here and not on Result.
type RunRecord struct {
	Runner  Runner
	Result  *Result
	Elapsed time.Duration
}

// RunAll executes runners against lab with at most parallelism workers
// and returns one record per runner in the order given (paper order),
// regardless of completion order. parallelism <= 0 means GOMAXPROCS.
//
// If emit is non-nil it is called once per record, in input order, as
// soon as that record and all earlier ones have completed — callers can
// stream output deterministically while later runners still execute.
//
// Results are byte-identical across parallelism levels: runners share
// nothing but the lab, whose day caches are singleflight and whose
// artifacts are pure functions of (seed, date). The scheduler itself
// never reorders, merges, or mutates results.
func RunAll(lab *Lab, runners []Runner, parallelism int, emit func(RunRecord)) []RunRecord {
	recs := make([]RunRecord, len(runners))
	done := make([]chan struct{}, len(runners))
	for i := range done {
		done[i] = make(chan struct{})
	}
	go syncx.ParallelEach(len(runners), parallelism, func(i int) {
		t0 := time.Now()
		res := runners[i].Run(lab)
		elapsed := time.Since(t0)
		recs[i] = RunRecord{Runner: runners[i], Result: res, Elapsed: elapsed}
		if lab != nil && lab.Metrics != nil {
			// Wall time is scheduling noise, not science, so it lives in
			// the metrics registry (one gauge per runner) rather than on
			// the deterministic Result.
			lab.Metrics.Gauge(obsv.Label("experiment_runner_seconds", "runner", runners[i].Name)).Set(elapsed.Seconds())
		}
		close(done[i])
	})

	for i := range runners {
		<-done[i]
		if emit != nil {
			emit(recs[i])
		}
	}
	return recs
}

// TotalElapsed sums per-runner wall time — the serial cost of the sweep,
// for comparing against the observed parallel wall clock.
func TotalElapsed(recs []RunRecord) time.Duration {
	var total time.Duration
	for _, r := range recs {
		total += r.Elapsed
	}
	return total
}
