package loadgen

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchrec"
)

func mkReport(gen int64, mode Mode, p99, errRate float64) *Report {
	const requests = 1000
	return &Report{
		Header: benchrec.Header{GeneratedUnix: gen},
		Runs: []*RunResult{{
			Mode:     mode,
			Requests: requests,
			Errors:   int64(errRate * requests),
			Routes:   []RouteStats{{Route: RouteReportCSV, Requests: requests, P99: p99}},
		}},
	}
}

func TestFoldHistoryCapsAndOrders(t *testing.T) {
	rep := mkReport(100, Closed, 0.01, 0)
	base := mkReport(99, Closed, 0.02, 0)
	for i := int64(0); i < benchrec.HistoryCap+10; i++ {
		base.History = append(base.History, HistoryEntry{GeneratedUnix: i})
	}
	rep.FoldHistory(base)
	if len(rep.History) != benchrec.HistoryCap {
		t.Fatalf("history len %d, want %d", len(rep.History), benchrec.HistoryCap)
	}
	// Most recent entries survive: the baseline's own headline is last.
	last := rep.History[len(rep.History)-1]
	if last.GeneratedUnix != 99 || last.WorstP99 != 0.02 {
		t.Errorf("last history entry %+v, want the baseline headline", last)
	}
	rep.FoldHistory(nil) // nil baseline is a no-op
	if len(rep.History) != benchrec.HistoryCap {
		t.Errorf("nil fold changed history to %d entries", len(rep.History))
	}
}

func TestGatePolicies(t *testing.T) {
	closedThenOpen := mkReport(2, Closed, 0.010, 0)
	closedThenOpen.Runs = append(closedThenOpen.Runs, mkReport(2, Open, 0.010, 0.002).Runs[0])
	cases := []struct {
		name    string
		rep     *Report
		base    *Report
		pct     float64
		maxErr  float64
		wantErr string
	}{
		{"clean run, no baseline", mkReport(2, Closed, 0.010, 0), nil, 50, 0.01, ""},
		{"within p99 budget", mkReport(2, Closed, 0.014, 0), mkReport(1, Closed, 0.010, 0), 50, 0.01, ""},
		{"p99 regression", mkReport(2, Closed, 0.016, 0), mkReport(1, Closed, 0.010, 0), 50, 0.01, "p99 regression"},
		{"error budget blown", mkReport(2, Closed, 0.010, 0.05), nil, 50, 0.01, "error rate"},
		{"zero errors allowed", mkReport(2, Closed, 0.010, 0.001), nil, 50, 0, "error rate"},
		{"error gate disabled", mkReport(2, Closed, 0.010, 0.5), nil, 50, -1, ""},
		{"errors in a later run", closedThenOpen, nil, 50, 0, "open run: error rate"},
		{"mode mismatch skips latency gate", mkReport(2, Open, 9.0, 0), mkReport(1, Closed, 0.010, 0), 50, 0.01, ""},
		{"pct 0 disables latency gate", mkReport(2, Closed, 9.0, 0), mkReport(1, Closed, 0.010, 0), 0, 0.01, ""},
		{"empty report", &Report{}, nil, 50, 0.01, "no runs"},
	}
	for _, tc := range cases {
		err := Gate(tc.rep, tc.base, tc.pct, tc.maxErr)
		if tc.wantErr == "" && err != nil {
			t.Errorf("%s: unexpected gate failure: %v", tc.name, err)
		}
		if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s: gate = %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestReportRoundTripAndLoadMissing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_load.json")
	if got := benchrec.LoadBaseline[Report]("", path); got != nil {
		t.Fatalf("missing file loaded as %+v", got)
	}
	rep := mkReport(42, Open, 0.25, 0.001)
	rep.Seed = 7
	rep.History = []HistoryEntry{{GeneratedUnix: 41}}
	if err := benchrec.Write(path, rep); err != nil {
		t.Fatal(err)
	}
	got := benchrec.LoadBaseline[Report]("", path)
	if got == nil || got.Seed != 7 || len(got.Runs) != 1 || len(got.History) != 1 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Runs[0].Mode != Open || got.Runs[0].Routes[0].P99 != 0.25 {
		t.Fatalf("run fields lost: %+v", got.Runs[0])
	}
}

// TestCommittedReportRoundTrips pins the record format: the committed
// BENCH_load.json decodes into Report and re-encodes byte-identically, so
// no field was renamed, reordered or dropped.
func TestCommittedReportRoundTrips(t *testing.T) {
	const committed = "../../BENCH_load.json"
	want, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	rep := benchrec.LoadBaseline[Report]("", committed)
	if rep == nil || len(rep.Runs) == 0 || len(rep.History) == 0 {
		t.Fatalf("committed record decoded as %+v", rep)
	}
	out := filepath.Join(t.TempDir(), "BENCH_load.json")
	if err := benchrec.Write(out, rep); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(out); !bytes.Equal(got, want) {
		t.Errorf("re-encoded record differs: %d bytes, committed %d", len(got), len(want))
	}
}

func TestSampleQuantile(t *testing.T) {
	if got := sampleQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 10}, {0.5, 5.5}, {0.9, 9.1},
	}
	for _, tc := range cases {
		if got := sampleQuantile(sorted, tc.q); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestWorstP99AndErrorRate(t *testing.T) {
	run := &RunResult{
		Requests: 200,
		Errors:   3,
		Routes: []RouteStats{
			{Route: "a", P99: 0.1},
			{Route: "b", P99: 0.7},
			{Route: "c", P99: 0.3},
		},
	}
	if got := run.WorstP99(); got != 0.7 {
		t.Errorf("WorstP99 = %v", got)
	}
	if got := run.ErrorRate(); got != 0.015 {
		t.Errorf("ErrorRate = %v", got)
	}
	if got := (&RunResult{}).ErrorRate(); got != 0 {
		t.Errorf("empty ErrorRate = %v", got)
	}
}
