package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
)

// Report is the whole BENCH_load.json document: the current run's
// per-route ledgers plus a rolling history of prior headline numbers, so
// the artifact records a latency trajectory across commits the same way
// BENCH_sweep.json records compute cost.
type Report struct {
	GeneratedUnix int64        `json:"generated_unix"`
	GoVersion     string       `json:"go_version"`
	NumCPU        int          `json:"num_cpu"`
	GOMAXPROCS    int          `json:"gomaxprocs"`
	Seed          uint64       `json:"seed"`
	Runs          []*RunResult `json:"runs"`

	// History holds prior reports' headline numbers, oldest first,
	// capped at historyCap entries.
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

// historyCap bounds the rolling trajectory carried inside the report.
const historyCap = 50

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

// FoldHistory carries the baseline's trajectory into this report: the
// baseline's own history, plus the baseline's headline appended, capped
// at historyCap (most recent kept).
func (rep *Report) FoldHistory(base *Report) {
	if base == nil {
		return
	}
	rep.History = append(rep.History, base.History...)
	if h, ok := base.headline(); ok {
		rep.History = append(rep.History, h)
	}
	if n := len(rep.History); n > historyCap {
		rep.History = rep.History[n-historyCap:]
	}
}

// LoadReport reads a prior BENCH_load.json, or nil when the file is
// missing or unparseable (first run, or a format change).
func LoadReport(path string) *Report {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var r Report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil
	}
	return &r
}

// WriteReport writes the report as indented JSON.
func (rep *Report) WriteReport(path string) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Gate applies the CI regression policy and returns the first violation:
//
//   - every run in the current report must keep its error rate at or
//     below maxErrorRate (<0 disables), and
//   - the first run's worst per-route p99 must not exceed the
//     baseline's same-mode headline by more than maxRegressPct percent
//     (<=0, or no usable baseline, disables — mirroring benchsweep's
//     -max-regress-pct).
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
	run := rep.Runs[0]
	if maxRegressPct <= 0 || base == nil {
		return nil
	}
	baseHead, ok := base.headline()
	if !ok || baseHead.Mode != run.Mode || baseHead.WorstP99 <= 0 {
		return nil // no comparable baseline: trend starts here
	}
	budget := baseHead.WorstP99 * (1 + maxRegressPct/100)
	if got := run.WorstP99(); got > budget {
		return fmt.Errorf("p99 regression: %.4fs vs baseline %.4fs (+%.0f%% budget)",
			got, baseHead.WorstP99, maxRegressPct)
	}
	return nil
}
