package loadgen

import (
	"fmt"

	"repro/internal/benchrec"
)

// Report is the whole BENCH_load.json document: the current run's
// per-route ledgers plus a rolling history of prior headline numbers, so
// the artifact records a latency trajectory across commits the same way
// BENCH_sweep.json records compute cost. Header, file handling, history
// cap and regression rule are the shared benchrec record's.
type Report struct {
	benchrec.Header
	Runs []*RunResult `json:"runs"`

	// History holds prior reports' headline numbers, oldest first,
	// capped at benchrec.HistoryCap entries.
	History []HistoryEntry `json:"history,omitempty"`
}

// HistoryEntry compresses one prior report's first run into the numbers
// worth trending: throughput, the worst per-route p99, and the error
// rate.
type HistoryEntry struct {
	GeneratedUnix int64   `json:"generated_unix"`
	Mode          Mode    `json:"mode"`
	Requests      int64   `json:"requests"`
	Throughput    float64 `json:"throughput_rps"`
	WorstP99      float64 `json:"worst_p99_seconds"`
	ErrorRate     float64 `json:"error_rate"`
}

// WorstP99 returns the largest per-route p99 in the run, the headline
// the regression gate trends. Herd routes are deliberately included:
// cold-day bursts are exactly the latencies worth guarding.
func (r *RunResult) WorstP99() float64 {
	worst := 0.0
	for _, rs := range r.Routes {
		if rs.P99 > worst {
			worst = rs.P99
		}
	}
	return worst
}

// ErrorRate returns the run's overall request error fraction.
func (r *RunResult) ErrorRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Errors) / float64(r.Requests)
}

// headline compresses a run for the history trail.
func (rep *Report) headline() (HistoryEntry, bool) {
	if len(rep.Runs) == 0 {
		return HistoryEntry{}, false
	}
	run := rep.Runs[0]
	return HistoryEntry{
		GeneratedUnix: rep.GeneratedUnix,
		Mode:          run.Mode,
		Requests:      run.Requests,
		Throughput:    run.Throughput,
		WorstP99:      run.WorstP99(),
		ErrorRate:     run.ErrorRate(),
	}, true
}

// FoldHistory carries the baseline's trajectory into this report (see
// benchrec.Fold). A nil baseline leaves the history as it is.
func (rep *Report) FoldHistory(base *Report) {
	if base != nil {
		h, ok := base.headline()
		rep.History = benchrec.Fold(base.History, h, ok)
	}
}

// Gate applies the CI regression policy and returns the first violation:
//
//   - every run in the current report must keep its error rate at or
//     below maxErrorRate (<0 disables), and
//   - the first run's worst per-route p99 must not regress past the
//     baseline's headline by benchrec.Regressed. Only a headline of the
//     same mode is comparable; without one the gate is off.
//
// Latency gates on shared CI runners need generous percentages; the gate
// exists to catch step-function regressions (a lost cache, an accidental
// O(n^2)), not 10% noise.
func Gate(rep, base *Report, maxRegressPct, maxErrorRate float64) error {
	if len(rep.Runs) == 0 {
		return fmt.Errorf("loadgen: report has no runs to gate")
	}
	for _, run := range rep.Runs {
		if er := run.ErrorRate(); maxErrorRate >= 0 && er > maxErrorRate {
			return fmt.Errorf("%s run: error rate %.4f exceeds budget %.4f (%d/%d requests failed)",
				run.Mode, er, maxErrorRate, run.Errors, run.Requests)
		}
	}
	if base == nil {
		return nil
	}
	run := rep.Runs[0]
	baseHead, ok := base.headline()
	if !ok || baseHead.Mode != run.Mode {
		return nil
	}
	if got := run.WorstP99(); benchrec.Regressed(got, baseHead.WorstP99, maxRegressPct) {
		return fmt.Errorf("p99 regression: %.4fs vs baseline %.4fs (+%.0f%% budget)",
			got, baseHead.WorstP99, maxRegressPct)
	}
	return nil
}
