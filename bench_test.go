// Package repro_test is the benchmark harness: one testing.B benchmark
// per table and figure of the paper, each regenerating the experiment and
// reporting its headline metrics via b.ReportMetric, plus full-sweep
// scheduler benchmarks. The ablations of the paper's design choices are
// assertions in internal/experiments (DESIGN §4), not benchmarks.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The absolute values are simulation outputs (see EXPERIMENTS.md for the
// paper-vs-measured comparison); the benchmarks exist so that every
// reported number can be regenerated with a single standard command.
package repro_test

import (
	"sync"
	"testing"

	"repro/internal/experiments"
)

var (
	benchOnce sync.Once
	benchLab  *experiments.Lab
)

func lab() *experiments.Lab {
	benchOnce.Do(func() { benchLab = experiments.NewLab(42) })
	return benchLab
}

// runExperiment benches one named experiment and surfaces its metrics.
func runExperiment(b *testing.B, name string, keys ...string) {
	b.Helper()
	r, ok := experiments.RunnerByName(name)
	if !ok {
		b.Fatalf("unknown experiment %s", name)
	}
	l := lab()
	var res *experiments.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = r.Run(l)
	}
	b.StopTimer()
	for _, k := range keys {
		if v, ok := res.Metrics[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	runExperiment(b, "Table1", "apnic_rows", "cdn_pairs")
}

func BenchmarkTable2(b *testing.B) {
	runExperiment(b, "Table2", "top1_users_M", "top5_in_cn")
}

func BenchmarkFigure1(b *testing.B) {
	runExperiment(b, "Figure1", "max_user_jump_pct")
}

func BenchmarkFigure2(b *testing.B) {
	runExperiment(b, "Figure2", "global_r2", "negative_r2")
}

func BenchmarkFigure3(b *testing.B) {
	runExperiment(b, "Figure3", "pair_overlap_pct", "users_cov_pct", "vol_cov_pct")
}

func BenchmarkTable3(b *testing.B) {
	runExperiment(b, "Table3", "pct_above_90", "median_pct")
}

func BenchmarkTable4(b *testing.B) {
	runExperiment(b, "Table4", "strong_threshold")
}

func BenchmarkFigure4(b *testing.B) {
	runExperiment(b, "Figure4", "ua_principal_pct", "ua_complete_pct", "vol_principal_pct", "vol_complete_pct")
}

func BenchmarkFigure5(b *testing.B) {
	runExperiment(b, "Figure5", "no_slope", "in_slope", "mm_slope")
}

func BenchmarkFigure6(b *testing.B) {
	runExperiment(b, "Figure6", "beta", "n_above_ci")
}

func BenchmarkFigure7(b *testing.B) {
	runExperiment(b, "Figure7", "ru_frac", "de_frac")
}

func BenchmarkFigure8(b *testing.B) {
	runExperiment(b, "Figure8", "days_frac_over_02")
}

func BenchmarkFigure9(b *testing.B) {
	runExperiment(b, "Figure9", "trend_pearson")
}

func BenchmarkFigure10(b *testing.B) {
	runExperiment(b, "Figure10", "europe_gain")
}

func BenchmarkFigure11(b *testing.B) {
	runExperiment(b, "Figure11", "south_america", "southern_asia")
}

func BenchmarkFigure12(b *testing.B) {
	runExperiment(b, "Figure12", "pct_below_1", "pct_at_least_5")
}

func BenchmarkTable6(b *testing.B) {
	runExperiment(b, "Table6", "eastern_asia_alloc", "northern_america_alloc")
}

func BenchmarkFigure13(b *testing.B) {
	runExperiment(b, "Figure13", "r2")
}

// ---- Full-sweep scheduler benchmarks ---------------------------------

// benchSweep runs the complete 21-runner sweep through the concurrent
// scheduler. Each iteration uses a fresh lab so the singleflight day
// caches start cold — that is exactly what cmd/experiments pays — while
// world construction stays outside the timer.
func benchSweep(b *testing.B, parallelism int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l := experiments.NewLab(42)
		b.StartTimer()
		experiments.RunAll(l, experiments.Runners(), parallelism, nil)
	}
}

func BenchmarkFullSweepParallel1(b *testing.B) { benchSweep(b, 1) }
func BenchmarkFullSweepParallel4(b *testing.B) { benchSweep(b, 4) }

// BenchmarkFullSweepGOMAXPROCS is the cmd/experiments default.
func BenchmarkFullSweepGOMAXPROCS(b *testing.B) { benchSweep(b, 0) }

// ---- Extensions ------------------------------------------------------

func BenchmarkExtDrivers(b *testing.B) {
	runExperiment(b, "ExtDrivers", "in_top_gain_pp", "ch_top_loss_pp")
}

func BenchmarkExtTrafficModel(b *testing.B) {
	runExperiment(b, "ExtTrafficModel", "in_sample_r2", "out_sample_r2")
}

func BenchmarkExtProxies(b *testing.B) {
	runExperiment(b, "ExtProxies", "apnic_users_spearman", "dns_queries_spearman", "path_popularity_spearman")
}
