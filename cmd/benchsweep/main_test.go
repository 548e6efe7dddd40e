package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/benchrec"
	"repro/internal/loadgen"
)

// TestCheckCodecs trips each codec gate just past its threshold and
// passes a matrix sitting exactly on every threshold.
func TestCheckCodecs(t *testing.T) {
	// apnic: csv round trip 1000 B in 1000 ns; bin 1200 B in 400 ns is
	// exactly 3x its bytes/sec, and 1200/1000 is exactly the size ratio.
	ok := func() []CodecTiming {
		return []CodecTiming{
			{Source: "apnic", Codec: "csv", Bytes: 1000, EncodeNSOp: 500, DecodeNSOp: 500},
			{Source: "apnic", Codec: "bin", Bytes: 1200, EncodeNSOp: 200, DecodeNSOp: 200, DecodeAllocsPerOp: 32},
			{Source: "apnic", Codec: "binz", Bytes: 1000, EncodeNSOp: 900, DecodeNSOp: 900, DecodeAllocsPerOp: 192},
		}
	}
	if err := checkCodecs(ok()); err != nil {
		t.Fatalf("matrix on every threshold: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(m []CodecTiming)
		want   string
	}{
		{"bin decode allocs", func(m []CodecTiming) { m[1].DecodeAllocsPerOp = 32.5 }, "binary decode alloc budget"},
		{"binz decode allocs", func(m []CodecTiming) { m[2].DecodeAllocsPerOp = 192.5 }, "compressed binary decode alloc budget"},
		{"binz ratio", func(m []CodecTiming) { m[2].Bytes = 1001 }, "binz compression gate"},
		{"bin speedup", func(m []CodecTiming) { m[1].DecodeNSOp = 201 }, "binary speedup gate"},
		{"missing binz row", func(m []CodecTiming) { m[2].Codec = "json" }, "missing bin/binz row"},
	} {
		m := ok()
		tc.mutate(m)
		if err := checkCodecs(m); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestSharedRuleAndFold runs benchrec's regression rule and history fold
// through both writers' headlines: this command's sweep wall_ns and
// loadgen's worst per-route p99 seconds. Only a test of this package can
// reach both writers, since this one is a main package.
func TestSharedRuleAndFold(t *testing.T) {
	writers := []struct {
		name string
		gate func(got, base float64, haveBase, sameKey bool, pct float64) error
		fold func(history int, headline, haveBase bool) []int64
	}{
		{"benchsweep wall_ns",
			func(got, base float64, haveBase, sameKey bool, pct float64) error {
				ns := func(s float64) int64 { return int64(math.Round(s * 1e9)) }
				rep := &Report{Sweeps: []Sweep{{Parallelism: 1, WallNS: ns(got)}}}
				var b *Report
				if haveBase {
					p := 1
					if !sameKey {
						p = 0
					}
					b = &Report{Sweeps: []Sweep{{Parallelism: p, WallNS: ns(base)}}}
				}
				return wallGate(rep, b, pct)
			},
			func(history int, headline, haveBase bool) []int64 {
				rep := &Report{}
				if haveBase {
					b := &Report{Header: benchrec.Header{GeneratedUnix: 999}}
					for i := range history {
						b.History = append(b.History, HistoryEntry{GeneratedUnix: int64(i)})
					}
					if headline {
						b.Sweeps = []Sweep{{Parallelism: 1, WallNS: 1}}
					}
					rep.foldHistory(b)
				}
				var gens []int64
				for _, h := range rep.History {
					gens = append(gens, h.GeneratedUnix)
				}
				return gens
			}},
		{"loadgen worst p99 seconds",
			func(got, base float64, haveBase, sameKey bool, pct float64) error {
				run := func(m loadgen.Mode, p99 float64) *loadgen.Report {
					return &loadgen.Report{Runs: []*loadgen.RunResult{{
						Mode: m, Routes: []loadgen.RouteStats{{Route: loadgen.RouteReportCSV, P99: p99}},
					}}}
				}
				var b *loadgen.Report
				if haveBase {
					m := loadgen.Closed
					if !sameKey {
						m = loadgen.Open
					}
					b = run(m, base)
				}
				return loadgen.Gate(run(loadgen.Closed, got), b, pct, -1)
			},
			func(history int, headline, haveBase bool) []int64 {
				rep := &loadgen.Report{}
				if haveBase {
					b := &loadgen.Report{Header: benchrec.Header{GeneratedUnix: 999}}
					for i := range history {
						b.History = append(b.History, loadgen.HistoryEntry{GeneratedUnix: int64(i)})
					}
					if headline {
						b.Runs = []*loadgen.RunResult{{Mode: loadgen.Closed}}
					}
					rep.FoldHistory(b)
				}
				var gens []int64
				for _, h := range rep.History {
					gens = append(gens, h.GeneratedUnix)
				}
				return gens
			}},
	}

	// Headline values in seconds; 0.5 × 1.5 = 0.75 exactly, so the
	// on-budget row sits on the rule's boundary.
	gateCases := []struct {
		name              string
		got, base         float64
		haveBase, sameKey bool
		pct               float64
		regressed         bool
	}{
		{"within budget", 0.7, 0.5, true, true, 50, false},
		{"on the budget", 0.75, 0.5, true, true, 50, false},
		{"past the budget", 0.76, 0.5, true, true, 50, true},
		{"faster than baseline", 0.1, 0.5, true, true, 50, false},
		{"no baseline", 9, 0, false, false, 50, false},
		{"pct 0 turns the gate off", 9, 0.5, true, true, 0, false},
		{"negative pct turns the gate off", 9, 0.5, true, true, -10, false},
		{"zero baseline headline", 9, 0, true, true, 50, false},
		{"mode or parallelism mismatch", 9, 0.5, true, false, 50, false},
	}
	// History lengths of the baseline, and the GeneratedUnix values the
	// fold must keep: the baseline's headline is stamped 999.
	upTo := func(lo, hi int64) []int64 {
		var s []int64
		for i := lo; i < hi; i++ {
			s = append(s, i)
		}
		return s
	}
	foldCases := []struct {
		name               string
		history            int
		headline, haveBase bool
		want               []int64
	}{
		{"no baseline", 0, false, false, nil},
		{"first baseline", 0, true, true, []int64{999}},
		{"baseline without a headline", 3, false, true, upTo(0, 3)},
		{"headline appended last", 3, true, true, append(upTo(0, 3), 999)},
		{"exactly at the cap", benchrec.HistoryCap - 1, true, true, append(upTo(0, benchrec.HistoryCap-1), 999)},
		{"cap keeps the most recent", benchrec.HistoryCap + 10, true, true, append(upTo(11, benchrec.HistoryCap+10), 999)},
	}

	for _, w := range writers {
		for _, tc := range gateCases {
			err := w.gate(tc.got, tc.base, tc.haveBase, tc.sameKey, tc.pct)
			if tc.regressed != (err != nil && strings.Contains(err.Error(), "regression")) {
				t.Errorf("%s, %s: gate = %v, want regression %v", w.name, tc.name, err, tc.regressed)
			}
		}
		for _, tc := range foldCases {
			if got := w.fold(tc.history, tc.headline, tc.haveBase); !slices.Equal(got, tc.want) {
				t.Errorf("%s, %s: history %v, want %v", w.name, tc.name, got, tc.want)
			}
		}
	}
}

// TestWallGateMatchesParallelism checks that the wall-time gate compares
// the first listed level with the baseline's sweep at the same
// parallelism, wherever that sweep sits in the baseline.
func TestWallGateMatchesParallelism(t *testing.T) {
	base := &Report{Sweeps: []Sweep{{Parallelism: 0, WallNS: 50}, {Parallelism: 1, WallNS: 100}}}
	if err := wallGate(&Report{Sweeps: []Sweep{{Parallelism: 1, WallNS: 120}}}, base, 25); err != nil {
		t.Errorf("serial sweep within budget of the serial baseline: %v", err)
	}
	err := wallGate(&Report{Sweeps: []Sweep{{Parallelism: 1, WallNS: 130}}}, base, 25)
	if err == nil || !strings.Contains(err.Error(), "vs baseline 100ns") {
		t.Errorf("serial sweep past budget: %v, want a regression against 100ns", err)
	}
	if err := wallGate(&Report{Sweeps: []Sweep{{Parallelism: 8, WallNS: 1e9}}}, base, 25); err != nil {
		t.Errorf("no baseline sweep at parallelism 8: %v", err)
	}
}

// TestCommittedReportRoundTrips pins the record format: the committed
// BENCH_sweep.json decodes into Report and re-encodes byte-identically,
// so no field was renamed, reordered or dropped.
func TestCommittedReportRoundTrips(t *testing.T) {
	const committed = "../../BENCH_sweep.json"
	want, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	rep := benchrec.LoadBaseline[Report]("", committed)
	if rep == nil || len(rep.Sweeps) == 0 || len(rep.History) == 0 {
		t.Fatalf("committed record decoded as %+v", rep)
	}
	out := filepath.Join(t.TempDir(), "BENCH_sweep.json")
	if err := benchrec.Write(out, rep); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(out); !bytes.Equal(got, want) {
		t.Errorf("re-encoded record differs: %d bytes, committed %d", len(got), len(want))
	}
}
