package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dates"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/syncx"
)

// elasticityAnalysis fits the §5.1.1 log-log relationship on the Figure 6
// snapshot; shared by Figures 6, 7 and 11 and the artifact checks.
func elasticityAnalysis(l *Lab) core.ElasticityAnalysis {
	rep := l.Report(Figure6Day)
	users := rep.OrgUsersCached(l.W.Registry)
	samples := rep.OrgSamples(l.W.Registry)
	return core.AnalyzeElasticity(core.TopOrgPoints(users, samples, 1))
}

// Figure6 regenerates the log-log Samples vs User-Estimates analysis.
// Paper shape: elasticity β ≈ 0.9 (a 1% sample increase ⇒ ~0.9-0.97% user
// increase), with the above-CI outliers being the low-ad-reach countries
// (Russia, Turkmenistan, Eritrea, Madagascar, Sudan, Myanmar, Vanuatu).
func Figure6(l *Lab) *Result {
	an := elasticityAnalysis(l)

	expected := []string{"RU", "TM", "ER", "MG", "SD", "MM", "VU"}
	above := map[string]bool{}
	for _, cc := range an.AboveCI {
		above[cc] = true
	}
	hits := 0
	for _, cc := range expected {
		if above[cc] {
			hits++
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "log10(users) = %.3f + %.3f * log10(samples)   (R²=%.3f, n=%d)\n",
		an.Fit.Intercept, an.Fit.Beta, an.Fit.R2, an.Fit.Used)
	fmt.Fprintf(&b, "above 95%% CI: %s\n", strings.Join(an.AboveCI, " "))
	fmt.Fprintf(&b, "below 95%% CI: %s\n", strings.Join(an.BelowCI, " "))
	fmt.Fprintf(&b, "paper outliers recovered: %d / %d\n", hits, len(expected))

	return &Result{
		ID:    "Figure 6",
		Title: fmt.Sprintf("Samples vs User Estimates, top org per country (%s)", Figure6Day),
		Text:  b.String(),
		Metrics: map[string]float64{
			"beta":           an.Fit.Beta,
			"r2":             an.Fit.R2,
			"countries":      float64(an.Fit.Used),
			"n_above_ci":     float64(len(an.AboveCI)),
			"paper_outliers": float64(hits),
		},
		Paper: map[string]float64{
			"beta":           0.9,
			"paper_outliers": 7,
		},
	}
}

// Figure7 regenerates the fraction of 2024 days on which each country's
// users-to-samples ratio sits above the elasticity bound. Paper shape:
// ex-Soviet low-reach states pinned at ~1.0, the global majority at ~0,
// and some African countries in between with date-dependent dips.
func Figure7(l *Lab) *Result {
	an := elasticityAnalysis(l)
	days := dates.Range(dates.New(2024, 1, 3), dates.New(2024, 12, 25), 7)

	// Each day's row depends only on that day; rows land in their own
	// slice slot, so day-level parallelism preserves the result exactly.
	dayRows := make([]map[string]core.ElasticityPoint, len(days))
	syncx.ParallelEach(len(days), 0, func(i int) {
		d := days[i]
		row := map[string]core.ElasticityPoint{}
		for _, cc := range l.W.Countries() {
			s, u := l.APNIC.CountryTotals(cc, d)
			if s > 0 && u > 0 {
				row[cc] = core.ElasticityPoint{Country: cc, Samples: float64(s), Users: u}
			}
		}
		dayRows[i] = row
	})
	perDay := map[string]map[string]core.ElasticityPoint{}
	for i, d := range days {
		perDay[d.String()] = dayRows[i]
	}
	frac := an.DaysAboveFraction(perDay)

	ccs := make([]string, 0, len(frac))
	for cc := range frac {
		ccs = append(ccs, cc)
	}
	sort.Slice(ccs, func(i, j int) bool {
		if frac[ccs[i]] != frac[ccs[j]] {
			return frac[ccs[i]] > frac[ccs[j]]
		}
		return ccs[i] < ccs[j]
	})
	var rows [][]string
	alwaysAbove, neverAbove := 0, 0
	for _, cc := range ccs {
		if frac[cc] >= 0.9 {
			alwaysAbove++
		}
		if frac[cc] == 0 {
			neverAbove++
		}
		if frac[cc] > 0 {
			rows = append(rows, []string{cc, report.F(frac[cc], 2)})
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "countries sampled weekly across 2024: %d; always above bound: %d; never: %d\n\n",
		len(ccs), alwaysAbove, neverAbove)
	b.WriteString(report.Table([]string{"Country", "Fraction of days above bound"}, rows))

	return &Result{
		ID:    "Figure 7",
		Title: "Fraction of 2024 days with User-to-Sample ratio above the CI",
		Text:  b.String(),
		Metrics: map[string]float64{
			"countries":    float64(len(ccs)),
			"always_above": float64(alwaysAbove),
			"never_above":  float64(neverAbove),
			"ru_frac":      frac["RU"],
			"tm_frac":      frac["TM"],
			"de_frac":      frac["DE"],
		},
		Paper: map[string]float64{
			"ru_frac": 1.0,
			"tm_frac": 1.0,
			"de_frac": 0.0,
		},
	}
}

// figure8Countries is the deterministic country subset used for the
// stability analysis (the full set would be slow in a unit-test context
// without changing any conclusion).
func figure8Countries(l *Lab) []string {
	all := l.W.Countries()
	var out []string
	for i, cc := range all {
		if i%2 == 0 {
			out = append(out, cc)
		}
	}
	return out
}

// stabilityDistances computes consecutive two-sample Kolmogorov–Smirnov
// distances per country at one granularity, optionally replacing each
// period's snapshot with the best day (minimum users-per-sample ratio)
// within the preceding window (§5.1.2's aggregation rule).
//
// The statistic follows the paper: the K-S distance between the
// *distributions of per-org user estimates* at t and t+1. This makes the
// measure sensitive to the country-wide ITU renormalization — a uniform
// rescale shifts every org's estimate and the K-S distance jumps by
// multiples of 1/n — which is precisely how the paper surfaces the
// ITU-driven instability of Figure 1.
func stabilityDistances(l *Lab, ccs []string, start dates.Date, periods, stepDays int, adjusted bool) []float64 {
	var out []float64
	for _, cc := range ccs {
		var snaps [][]float64
		for p := 0; p < periods; p++ {
			d := start.AddDays(p * stepDays)
			if adjusted {
				d = bestDayBefore(l, cc, d, 60)
			}
			sh := l.APNIC.CountryOrgShares(cc, d)
			if len(sh) == 0 {
				continue
			}
			_, itu := l.APNIC.CountryTotals(cc, d)
			vals := make([]float64, 0, len(sh))
			for _, s := range sh {
				vals = append(vals, s*itu)
			}
			snaps = append(snaps, vals)
		}
		for i := 1; i < len(snaps); i++ {
			d := stats.KSTwoSample(snaps[i-1], snaps[i])
			if !math.IsNaN(d) {
				out = append(out, d)
			}
		}
	}
	return out
}

// bestDayBefore applies the best-day rule: among every 5th day of the 60
// days ending at d, pick the one with the smallest users-per-sample
// ratio for the country.
func bestDayBefore(l *Lab, cc string, d dates.Date, window int) dates.Date {
	return bestInWindow(d, window, func(day dates.Date) float64 {
		s, u := l.APNIC.CountryTotals(cc, day)
		if s <= 0 {
			return 0
		}
		return core.ElasticityRatio(u, float64(s))
	})
}

// bestInWindow returns the day with the smallest positive ratio among
// every 5th day of the window days ending at d, or d when none has one.
// It walks the window oldest first and keeps a strictly smaller ratio
// only, which is core.BestDay's rule: ties go to the earliest day.
func bestInWindow(d dates.Date, window int, ratio func(dates.Date) float64) dates.Date {
	best, bestRatio := d, math.Inf(1)
	for k := (window+4)/5 - 1; k >= 0; k-- {
		day := d.AddDays(-5 * k)
		if r := ratio(day); r > 0 && r < bestRatio {
			best, bestRatio = day, r
		}
	}
	return best
}

// Figure8 regenerates the K-S stability CDFs across granularities, with
// and without the best-day adjustment. Paper shape: ~10% of consecutive
// days move some org by ≥0.2 of the country; coarser granularities move
// more; the elasticity-based best-day rule flattens every curve.
func Figure8(l *Lab) *Result {
	ccs := figure8Countries(l)
	type curve struct {
		label    string
		start    dates.Date
		periods  int
		stepDays int
		adjusted bool
		data     []float64
	}
	curves := []curve{
		{label: "days", start: dates.New(2024, 2, 1), periods: 20, stepDays: 1},
		{label: "days-adj", start: dates.New(2024, 2, 1), periods: 20, stepDays: 1, adjusted: true},
		{label: "weeks", start: dates.New(2024, 1, 1), periods: 16, stepDays: 7},
		{label: "weeks-adj", start: dates.New(2024, 1, 1), periods: 16, stepDays: 7, adjusted: true},
		{label: "months", start: dates.New(2023, 1, 15), periods: 14, stepDays: 30},
		{label: "months-adj", start: dates.New(2023, 1, 15), periods: 14, stepDays: 30, adjusted: true},
		{label: "years", start: dates.New(2015, 6, 1), periods: 10, stepDays: 365},
		{label: "years-adj", start: dates.New(2015, 6, 1), periods: 10, stepDays: 365, adjusted: true},
	}
	// The eight curves are independent pure computations over the shared
	// read-only generators; each writes only its own slot, so parallel
	// execution cannot change the result.
	syncx.ParallelEach(len(curves), 0, func(i int) {
		c := &curves[i]
		c.data = stabilityDistances(l, ccs, c.start, c.periods, c.stepDays, c.adjusted)
	})

	metrics := map[string]float64{}
	var rows [][]string
	var plotNames []string
	var plotCurves [][2][]float64
	for _, c := range curves {
		if len(c.data) == 0 {
			continue
		}
		p50 := stats.Quantile(c.data, 0.5)
		p90 := stats.Quantile(c.data, 0.9)
		over02 := 0.0
		for _, v := range c.data {
			if v > 0.2 {
				over02++
			}
		}
		fracOver := over02 / float64(len(c.data))
		rows = append(rows, []string{c.label, fmt.Sprintf("%d", len(c.data)), report.F(p50, 3), report.F(p90, 3), report.F(100*fracOver, 1) + "%"})
		metrics[c.label+"_p90"] = p90
		metrics[c.label+"_frac_over_02"] = fracOver
		if c.label == "days" || c.label == "months" || c.label == "months-adj" {
			xs, fs := stats.NewECDF(c.data).Points()
			plotNames = append(plotNames, c.label)
			plotCurves = append(plotCurves, [2][]float64{xs, fs})
		}
	}

	text := report.Table([]string{"Granularity", "N", "median", "p90", "share > 0.2"}, rows) +
		"\nCDF of K-S distances (cf. the paper's Figure 8):\n" +
		report.CDFPlot(plotNames, plotCurves, 60, 12)

	return &Result{
		ID:      "Figure 8",
		Title:   "K-S stability of per-country user distributions",
		Text:    text,
		Metrics: metrics,
		Paper: map[string]float64{
			// ~10% of (country, day) pairs exceed 0.2 at daily
			// granularity; the adjusted curves are much flatter.
			"days_frac_over_02": 0.10,
		},
	}
}
