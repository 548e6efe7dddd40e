package experiments

import (
	"math"
	"sync"
	"testing"

	"repro/internal/apnic"
	"repro/internal/broadband"
	"repro/internal/cdn"
	"repro/internal/dates"
	"repro/internal/dnscount"
	"repro/internal/itu"
	"repro/internal/ixp"
	"repro/internal/mlab"
	"repro/internal/source"
	"repro/internal/source/bundle"
)

// The lab is expensive enough to share across tests; runners must not
// mutate it beyond cache fills.
var (
	labOnce sync.Once
	lab     *Lab
)

func testLab(t *testing.T) *Lab {
	t.Helper()
	labOnce.Do(func() { lab = NewLab(42) })
	return lab
}

func metric(t *testing.T, r *Result, key string) float64 {
	t.Helper()
	v, ok := r.Metrics[key]
	if !ok {
		t.Fatalf("%s: missing metric %q (have %v)", r.ID, key, sortedMetricKeys(r.Metrics))
	}
	return v
}

func TestRunnersComplete(t *testing.T) {
	rs := Runners()
	if len(rs) != 21 {
		t.Fatalf("%d runners; every table and figure must be present", len(rs))
	}
	seen := map[string]bool{}
	for _, r := range rs {
		if seen[r.Name] {
			t.Fatalf("duplicate runner %s", r.Name)
		}
		seen[r.Name] = true
		if r.Run == nil || r.Desc == "" {
			t.Fatalf("runner %s incomplete", r.Name)
		}
	}
	if _, ok := RunnerByName("table2"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if _, ok := RunnerByName("nope"); ok {
		t.Fatal("unknown runner should miss")
	}
}

func TestEveryRunnerProducesOutput(t *testing.T) {
	l := testLab(t)
	for _, r := range Runners() {
		res := r.Run(l)
		if res == nil || res.ID == "" || res.Title == "" || res.Text == "" {
			t.Fatalf("%s produced empty result", r.Name)
		}
		if len(res.Metrics) == 0 {
			t.Fatalf("%s produced no metrics", r.Name)
		}
		for k, v := range res.Metrics {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s metric %s = %v", r.Name, k, v)
			}
		}
	}
}

func TestTable2Shape(t *testing.T) {
	res := Table2(testLab(t))
	if metric(t, res, "top5_in_cn") != 5 {
		t.Error("top-5 should all be Indian or Chinese ASes")
	}
	if v := metric(t, res, "top1_users_M"); v < 100 || v > 600 {
		t.Errorf("top AS has %vM users; want hundreds of millions", v)
	}
}

func TestFigure1Shape(t *testing.T) {
	res := Figure1(testLab(t))
	if metric(t, res, "orgs_plotted") != 5 {
		t.Error("should plot 5 ISPs")
	}
	// Some ITU-driven divergence between users and samples must exist.
	if metric(t, res, "max_user_jump_pct") < 3 {
		t.Error("no visible ITU instability event")
	}
}

func TestFigure2Shape(t *testing.T) {
	res := Figure2(testLab(t))
	if v := metric(t, res, "global_r2"); v < 0.5 || v > 0.95 {
		t.Errorf("global R² = %v; paper reports 0.72 (strong but imperfect)", v)
	}
	if metric(t, res, "countries") != 20 {
		t.Error("survey must cover 20 countries")
	}
	if metric(t, res, "mobile_overrep") < 3 {
		t.Error("mobile-heavy carriers should be visibly overrepresented")
	}
}

func TestFigure3Shape(t *testing.T) {
	res := Figure3(testLab(t))
	// The paper's central §4.2 finding: a modest pair overlap carries
	// almost all of every weighting.
	if v := metric(t, res, "pair_overlap_pct"); v < 25 || v > 70 {
		t.Errorf("pair overlap = %v%%; paper ≈ 40%%", v)
	}
	for _, k := range []string{"users_cov_pct", "ua_cov_pct", "vol_cov_pct"} {
		if v := metric(t, res, k); v < 90 {
			t.Errorf("%s = %v%%; the common pairs must carry ≥90%%", k, v)
		}
	}
	if metric(t, res, "cdn_only") < 100 {
		t.Error("the CDN must see a long tail APNIC misses")
	}
	if metric(t, res, "apnic_only") < 1 {
		t.Error("some APNIC-only pairs should exist (censored-country networks)")
	}
}

func TestTable3Shape(t *testing.T) {
	res := Table3(testLab(t))
	if v := metric(t, res, "pct_above_90"); v < 80 {
		t.Errorf("only %v%% of countries above 90%% coverage; paper: nearly all", v)
	}
	if v := metric(t, res, "median_pct"); v < 95 {
		t.Errorf("median coverage = %v%%; paper ≈ 99.8%%", v)
	}
}

func TestFigure4Shape(t *testing.T) {
	res := Figure4(testLab(t))
	uaP := metric(t, res, "ua_principal_pct")
	volP := metric(t, res, "vol_principal_pct")
	uaR := metric(t, res, "ua_rank_pct")
	volR := metric(t, res, "vol_rank_pct")
	uaC := metric(t, res, "ua_complete_pct")
	volC := metric(t, res, "vol_complete_pct")

	// Principal-org agreement is high for both metrics (paper: 93.9 and
	// 91.0) and always the easiest level.
	if uaP < 80 || volP < 80 {
		t.Errorf("principal agreement too low: ua=%v vol=%v", uaP, volP)
	}
	if uaR > uaP || volR > volP {
		t.Error("rank agreement cannot exceed principal agreement here")
	}
	// User-Agent agreement beats traffic-volume agreement (the paper's
	// key ordering: APNIC measures users better than traffic).
	if uaR <= volR || uaC <= volC {
		t.Errorf("UA agreement (%v/%v) should exceed volume agreement (%v/%v)", uaR, uaC, volR, volC)
	}
}

func TestFigure5Shape(t *testing.T) {
	res := Figure5(testLab(t))
	// Russia: scrambled (the paper's upper-left cloud).
	if v := metric(t, res, "ru_pearson"); v > 0.6 {
		t.Errorf("Russia Pearson = %v; should be scrambled", v)
	}
	// Norway and India: CDN sees much less than APNIC implies (slope ≪ 1).
	if v := metric(t, res, "no_slope"); v > 0.7 {
		t.Errorf("Norway slope = %v; VPN should drag it down", v)
	}
	if v := metric(t, res, "in_slope"); v > 0.7 {
		t.Errorf("India slope = %v; cloud traffic should drag it down", v)
	}
	// Myanmar: slope near 1 (the disagreement is noise, not scale).
	if v := metric(t, res, "mm_slope"); v < 0.5 || v > 1.5 {
		t.Errorf("Myanmar slope = %v; paper ≈ 0.98", v)
	}
}

func TestFigure6Shape(t *testing.T) {
	res := Figure6(testLab(t))
	if v := metric(t, res, "beta"); v < 0.7 || v > 1.05 {
		t.Errorf("elasticity β = %v; paper ≈ 0.9", v)
	}
	if v := metric(t, res, "paper_outliers"); v < 4 {
		t.Errorf("only %v of the paper's outlier countries recovered", v)
	}
	if v := metric(t, res, "n_above_ci"); v > 15 {
		t.Errorf("%v countries above CI; should be a small set", v)
	}
}

func TestFigure7Shape(t *testing.T) {
	res := Figure7(testLab(t))
	if v := metric(t, res, "ru_frac"); v < 0.9 {
		t.Errorf("Russia above-bound fraction = %v; paper: pinned at 1", v)
	}
	if v := metric(t, res, "tm_frac"); v < 0.9 {
		t.Errorf("Turkmenistan above-bound fraction = %v", v)
	}
	if v := metric(t, res, "de_frac"); v > 0.05 {
		t.Errorf("Germany above-bound fraction = %v; should be ~0", v)
	}
	if v := metric(t, res, "never_above"); v < metric(t, res, "countries")/2 {
		t.Error("the majority of countries should never exceed the bound")
	}
}

func TestFigure8Shape(t *testing.T) {
	res := Figure8(testLab(t))
	daily := metric(t, res, "days_frac_over_02")
	if daily < 0.03 || daily > 0.25 {
		t.Errorf("daily K-S > 0.2 fraction = %v; paper ≈ 0.10", daily)
	}
	// Coarser granularity → larger distances.
	if metric(t, res, "months_p90") < metric(t, res, "days_p90") {
		t.Error("monthly distances should exceed daily")
	}
	// The best-day rule stabilizes the weekly and monthly curves.
	if metric(t, res, "weeks-adj_p90") >= metric(t, res, "weeks_p90") {
		t.Error("adjusted weekly curve should be flatter")
	}
	if metric(t, res, "months-adj_p90") >= metric(t, res, "months_p90") {
		t.Error("adjusted monthly curve should be flatter")
	}
}

func TestFigure9Shape(t *testing.T) {
	res := Figure9(testLab(t))
	if v := metric(t, res, "trend_pearson"); v < 0.5 {
		t.Errorf("M-Lab→CDN agreement trend = %v; should be clearly increasing", v)
	}
	if metric(t, res, "countries") < 50 {
		t.Error("too few countries with both datasets")
	}
}

func TestFigure10Shape(t *testing.T) {
	res := Figure10(testLab(t))
	// Adding IXP data must help, most visibly in IXP-dense Europe.
	if v := metric(t, res, "europe_gain"); v <= 0 {
		t.Errorf("Europe MIC gain = %v; should be positive", v)
	}
	if v := metric(t, res, "asia_gain"); v < -0.02 {
		t.Errorf("Asia MIC gain = %v; should not be clearly negative", v)
	}
}

func TestFigure11Shape(t *testing.T) {
	res := Figure11(testLab(t))
	// §6's regional story.
	if v := metric(t, res, "south_america"); v < 20 {
		t.Errorf("South America change = %v%%; should increase massively", v)
	}
	if v := metric(t, res, "southern_asia"); v > -10 {
		t.Errorf("Southern Asia change = %v%%; should decrease drastically", v)
	}
	if v := metric(t, res, "western_europe"); v > 0 {
		t.Errorf("Western Europe change = %v%%; should decline", v)
	}
	if v := metric(t, res, "africa_middle_west"); v > 0 {
		t.Errorf("Africa change = %v%%; should decline", v)
	}
}

func TestFigure12Shape(t *testing.T) {
	res := Figure12(testLab(t))
	if v := metric(t, res, "pct_below_1"); v < 70 {
		t.Errorf("only %v%% of pairs stable below 1%%; paper > 93%%", v)
	}
	if v := metric(t, res, "pct_at_least_5"); v > 5 {
		t.Errorf("%v%% of pairs above 5%%; paper ≈ 0.8%%", v)
	}
}

func TestTable6Shape(t *testing.T) {
	res := Table6(testLab(t))
	if v := metric(t, res, "caribbean_alloc"); v <= 0 {
		t.Errorf("Caribbean allocation change = %v; should grow", v)
	}
	if v := metric(t, res, "northern_america_alloc"); v >= 0 {
		t.Errorf("Northern America allocation change = %v; should shrink", v)
	}
	if metric(t, res, "eastern_asia_adv") <= metric(t, res, "eastern_asia_alloc") {
		t.Error("Eastern Asia advertises faster than it allocates")
	}
}

func TestFigure13Shape(t *testing.T) {
	res := Figure13(testLab(t))
	if v := metric(t, res, "r2"); v < 0.25 || v > 0.75 {
		t.Errorf("IXP↔PNI R² = %v; paper ≈ 0.47 (loose mid-range)", v)
	}
	if metric(t, res, "slope") <= 0 {
		t.Error("IXP↔PNI slope must be positive")
	}
}

func TestLabCaching(t *testing.T) {
	l := testLab(t)
	r1 := l.Report(PrimaryCDNDay)
	r2 := l.Report(PrimaryCDNDay)
	if r1 != r2 {
		t.Error("reports not cached")
	}
	s1 := l.Snapshot(PrimaryCDNDay)
	s2 := l.Snapshot(PrimaryCDNDay)
	if s1 != s2 {
		t.Error("snapshots not cached")
	}
}

// TestLabMatchesRegistry pins that the lab's native day caches and a
// server's registry over the same (world, seed) hold the same data: for
// every dataset, the lab's value converts to exactly the frame the
// registry serves. The day is mid-month so mlab's month-start keying is
// exercised on both sides, and the lab must resolve it to the dataset it
// caches for the month start.
func TestLabMatchesRegistry(t *testing.T) {
	l := testLab(t)
	d := dates.New(2024, 4, 17)
	reg := bundle.New(l.W, l.Seed, bundle.Config{}).Registry
	for name, f := range map[string]*source.Frame{
		apnic.DatasetName:     l.Report(d).Frame(),
		cdn.DatasetName:       l.Snapshot(d).Frame(),
		itu.DatasetName:       l.ITU.Generate(d).Frame(),
		mlab.DatasetName:      l.MLabData(d).Frame(),
		dnscount.DatasetName:  l.DNSData(d).Frame(),
		broadband.DatasetName: l.BroadbandData(d).Frame(),
		ixp.DatasetName:       l.IXPData(d).Frame(),
	} {
		want, err := reg.Frame(name, d)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Equal(want) {
			t.Errorf("%s: lab frame differs from the registry's for %s", name, d)
		}
	}
	if n := len(reg.Names()); n != 7 {
		t.Errorf("registry serves %d datasets, the lab covers 7", n)
	}
	if l.MLabData(d) != l.MLabData(dates.New(2024, 4, 1)) {
		t.Error("mlab: days of one month resolve to different cached datasets")
	}
}

func TestDeterministicAcrossLabs(t *testing.T) {
	a := NewLab(7)
	b := NewLab(7)
	ra := Figure3(a)
	rb := Figure3(b)
	for k, v := range ra.Metrics {
		if rb.Metrics[k] != v {
			t.Errorf("metric %s differs across same-seed labs: %v vs %v", k, v, rb.Metrics[k])
		}
	}
}

func TestExtDriversShape(t *testing.T) {
	res := ExtDrivers(testLab(t))
	// India consolidates: its top gainer gains substantially.
	if v := metric(t, res, "in_top_gain_pp"); v < 2 {
		t.Errorf("India top gainer +%vpp; should be substantial", v)
	}
	// Switzerland's merger: the absorbed org is the biggest loser.
	if v := metric(t, res, "ch_top_loss_pp"); v > -2 {
		t.Errorf("Switzerland top loss %vpp; the merger victim should lose its whole share", v)
	}
}

func TestExtTrafficModelShape(t *testing.T) {
	res := ExtTrafficModel(testLab(t))
	in := metric(t, res, "in_sample_r2")
	out := metric(t, res, "out_sample_r2")
	if in < 0.4 {
		t.Errorf("in-sample R² = %v; blend should fit well", in)
	}
	if out < 0.3 {
		t.Errorf("out-of-sample R² = %v; blend should generalize", out)
	}
	if out > in+0.05 {
		t.Errorf("out-of-sample R² (%v) implausibly above in-sample (%v)", out, in)
	}
}

func TestExtProxiesShape(t *testing.T) {
	res := ExtProxies(testLab(t))
	apnicCorr := metric(t, res, "apnic_users_spearman")
	dnsCorr := metric(t, res, "dns_queries_spearman")
	ixpCorr := metric(t, res, "ixp_capacity_spearman")
	pathCorr := metric(t, res, "path_popularity_spearman")

	// APNIC is the best magnitude proxy among public sources — the
	// paper's bottom line.
	if apnicCorr <= dnsCorr || apnicCorr <= ixpCorr || apnicCorr <= pathCorr {
		t.Errorf("APNIC Spearman %v should lead (dns=%v ixp=%v path=%v)",
			apnicCorr, dnsCorr, ixpCorr, pathCorr)
	}
	// DNS detects presence almost everywhere — far beyond APNIC's
	// sample-floor-limited coverage.
	if metric(t, res, "dns_queries_coverage") <= 2*metric(t, res, "apnic_users_coverage") {
		t.Error("DNS pair coverage should dwarf APNIC's")
	}
	// The traceroute campaign ran with measurement error.
	if metric(t, res, "lost_hops") <= 0 {
		t.Error("no hop loss recorded")
	}
}

func TestRunnerByNameTable(t *testing.T) {
	cases := []struct {
		query string
		want  string // canonical name; "" means not found
	}{
		{"Table2", "Table2"},
		{"table2", "Table2"},
		{"TABLE2", "Table2"},
		{"tAbLe2", "Table2"},
		{"Figure13", "Figure13"},
		{"extproxies", "ExtProxies"},
		{"EXTTRAFFICMODEL", "ExtTrafficModel"},
		{"Table", ""},   // prefix is not a match
		{"Table22", ""}, // superstring is not a match
		{"nope", ""},
		{"", ""},
		{" Table2", ""}, // caller is responsible for trimming
	}
	for _, tc := range cases {
		r, ok := RunnerByName(tc.query)
		if tc.want == "" {
			if ok {
				t.Errorf("RunnerByName(%q) unexpectedly found %s", tc.query, r.Name)
			}
			continue
		}
		if !ok {
			t.Errorf("RunnerByName(%q) not found, want %s", tc.query, tc.want)
			continue
		}
		if r.Name != tc.want {
			t.Errorf("RunnerByName(%q) = %s, want %s", tc.query, r.Name, tc.want)
		}
		if r.Run == nil || r.Desc == "" {
			t.Errorf("RunnerByName(%q) returned an incomplete runner", tc.query)
		}
	}
}

func TestSortedMetricKeysTable(t *testing.T) {
	cases := []struct {
		name string
		in   map[string]float64
		want []string
	}{
		{"nil", nil, []string{}},
		{"empty", map[string]float64{}, []string{}},
		{"single", map[string]float64{"a": 1}, []string{"a"}},
		{"reversed", map[string]float64{"c": 3, "b": 2, "a": 1}, []string{"a", "b", "c"}},
		{"mixed_case", map[string]float64{"B": 1, "a": 2, "A": 3}, []string{"A", "B", "a"}},
		{"underscores", map[string]float64{"x_2": 0, "x_10": 0, "x_1": 0}, []string{"x_1", "x_10", "x_2"}},
	}
	for _, tc := range cases {
		got := sortedMetricKeys(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("%s: sortedMetricKeys = %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: sortedMetricKeys = %v, want %v", tc.name, got, tc.want)
				break
			}
		}
		// Stable across calls: re-run and compare.
		again := sortedMetricKeys(tc.in)
		for i := range got {
			if got[i] != again[i] {
				t.Errorf("%s: ordering unstable across calls: %v then %v", tc.name, got, again)
				break
			}
		}
	}
}
