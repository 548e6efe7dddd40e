package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/report"
	"repro/internal/stats"
)

// countryKendall computes per-country Kendall-Tau between APNIC user
// shares and another per-country share map provider.
func countryKendall(l *Lab, other func(cc string) map[string]float64, only func(cc string) bool) map[string]float64 {
	rep := l.Report(PrimaryCDNDay)
	out := map[string]float64{}
	for _, cc := range l.W.Countries() {
		if only != nil && !only(cc) {
			continue
		}
		apnicShares := rep.CountryOrgUsers(l.W.Registry, cc)
		o := other(cc)
		if len(apnicShares) < 3 || len(o) < 3 {
			continue
		}
		res := core.CompareShares(apnicShares, o)
		if !math.IsNaN(res.Kendall) {
			out[cc] = res.Kendall
		}
	}
	return out
}

// Figure9 regenerates the §5.2 cross-check: binning countries by their
// M-Lab↔APNIC Kendall-Tau and summarizing the CDN↔APNIC Kendall-Tau per
// bin. Paper shape: the per-bin average rises monotonically — strong
// public agreement predicts strong private agreement.
func Figure9(l *Lab) *Result {
	ml := l.MLabData(BroadbandDay)
	snap := l.Snapshot(PrimaryCDNDay)

	public := countryKendall(l, ml.CountryShares, l.MLab.Integrated)
	private := countryKendall(l, snap.VolumeShares, nil)

	bins := core.BinKendall(public, private, 0.1)
	var rows [][]string
	var mids, avgs, weights []float64
	for _, b := range bins {
		rows = append(rows, []string{
			fmt.Sprintf("[%.2f, %.2f)", b.Lo, b.Hi),
			fmt.Sprintf("%d", b.Count),
			report.F(b.Min, 2), report.F(b.Avg, 2), report.F(b.Max, 2),
		})
		// Singleton bins are pure noise; the trend statistic uses the
		// populated bins only, and weights each bin by how many
		// countries it aggregates — a sparsely populated extreme bin
		// (2-org countries where tau is trivially ±1) must not swing
		// the trend as hard as the 40-country bins in the middle.
		if b.Count >= 3 {
			mids = append(mids, (b.Lo+b.Hi)/2)
			avgs = append(avgs, b.Avg)
			weights = append(weights, float64(b.Count))
		}
	}
	trend := stats.WeightedPearson(mids, avgs, weights)

	var b strings.Builder
	b.WriteString(report.Table([]string{"M-Lab tau bin", "countries", "CDN tau min", "avg", "max"}, rows))
	fmt.Fprintf(&b, "\ntrend: Pearson(bin center, avg CDN tau) = %.2f over %d bins, %d countries\n",
		trend, len(bins), len(public))

	return &Result{
		ID:    "Figure 9",
		Title: "M-Lab↔APNIC Kendall bins vs CDN↔APNIC Kendall",
		Text:  b.String(),
		Metrics: map[string]float64{
			"bins":           float64(len(bins)),
			"countries":      float64(len(public)),
			"trend_pearson":  trend,
			"top_bin_avg":    lastAvg(bins),
			"bottom_bin_avg": firstAvg(bins),
		},
		Paper: map[string]float64{
			// The paper's Figure 9 shows a clearly increasing average.
			"trend_pearson": 0.9,
		},
	}
}

func firstAvg(bins []core.KendallBin) float64 {
	if len(bins) == 0 {
		return math.NaN()
	}
	return bins[0].Avg
}

func lastAvg(bins []core.KendallBin) float64 {
	if len(bins) == 0 {
		return math.NaN()
	}
	return bins[len(bins)-1].Avg
}

// Figure10 regenerates the §5.3 MIC analysis: per country, the maximal
// information the APNIC estimates alone carry about CDN traffic volume,
// versus APNIC plus IXP capacity. Paper shape: the combined CDF
// stochastically dominates the APNIC-only CDF on every continent shown
// (Oceania, Asia, Europe).
func Figure10(l *Lab) *Result {
	rep := l.Report(PrimaryCDNDay)
	snap := l.Snapshot(PrimaryCDNDay)
	ix := l.IXPData(PrimaryCDNDay)

	// Within-country IXP capacity shares, so that all three quantities
	// are commensurate relative measures.
	ixpShares := func(cc string) map[string]float64 {
		caps := ix.CountryCapacities(cc)
		total := stats.SumMap(caps) // sorted-order sum: bit-reproducible
		out := make(map[string]float64, len(caps))
		if total > 0 {
			for id, v := range caps {
				out[id] = v / total
			}
		}
		return out
	}

	// Train the blend once on the pooled per-org observations — the
	// paper's "train with private data, predict from public inputs".
	// Observations are appended in sorted org order: the fit's normal
	// equations sum over them, and float summation order must not depend
	// on map iteration.
	var ta, tx, tv []float64
	for _, cc := range l.W.Countries() {
		aSh := rep.CountryOrgUsers(l.W.Registry, cc)
		iSh := ixpShares(cc)
		vols := snap.VolumeShares(cc)
		ids := make([]string, 0, len(vols))
		for id := range vols {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			ta = append(ta, aSh[id])
			tx = append(tx, iSh[id])
			tv = append(tv, vols[id])
		}
	}
	model := core.FitTrafficModel(ta, tx, tv)

	conts := []geo.Continent{geo.Oceania, geo.Asia, geo.Europe}
	perCont := map[geo.Continent][]core.MICComparison{}
	for _, cc := range l.W.Countries() {
		c, _ := geo.ByCode(cc)
		cont := c.Continent()
		keep := false
		for _, want := range conts {
			if cont == want {
				keep = true
			}
		}
		if !keep {
			continue
		}
		cmp, ok := core.CompareMIC(cc, model,
			rep.CountryOrgUsers(l.W.Registry, cc),
			ixpShares(cc),
			snap.VolumeShares(cc))
		if ok {
			perCont[cont] = append(perCont[cont], cmp)
		}
	}

	metrics := map[string]float64{}
	var rows [][]string
	var plotNames []string
	var plotCurves [][2][]float64
	for _, cont := range conts {
		cmps := perCont[cont]
		if len(cmps) == 0 {
			continue
		}
		var alone, combined []float64
		gain := 0.0
		for _, c := range cmps {
			alone = append(alone, c.APNIC)
			combined = append(combined, c.Combined)
			gain += c.Combined - c.APNIC
		}
		gain /= float64(len(cmps))
		rows = append(rows, []string{
			string(cont), fmt.Sprintf("%d", len(cmps)),
			report.F(stats.Median(alone), 2), report.F(stats.Median(combined), 2),
			report.F(gain, 3),
		})
		key := strings.ToLower(strings.ReplaceAll(string(cont), " ", "_"))
		metrics[key+"_gain"] = gain
		metrics[key+"_n"] = float64(len(cmps))
		if cont == geo.Europe {
			xs, fs := stats.NewECDF(alone).Points()
			plotNames = append(plotNames, "Europe APNIC")
			plotCurves = append(plotCurves, [2][]float64{xs, fs})
			xs2, fs2 := stats.NewECDF(combined).Points()
			plotNames = append(plotNames, "Europe APNIC+IXP")
			plotCurves = append(plotCurves, [2][]float64{xs2, fs2})
		}
	}

	text := report.Table([]string{"Continent", "countries", "median MIC (APNIC)", "median MIC (combined)", "avg gain"}, rows) +
		"\nCDF across European countries (cf. the paper's Figure 10):\n" +
		report.CDFPlot(plotNames, plotCurves, 60, 12)

	return &Result{
		ID:      "Figure 10",
		Title:   "MIC against CDN traffic volume: APNIC alone vs APNIC + IXP",
		Text:    text,
		Metrics: metrics,
		Paper: map[string]float64{
			// The paper reports a positive information gain on every
			// plotted continent.
			"europe_gain": 0.05,
		},
	}
}

// Figure13 regenerates Appendix E: the linear relationship between an
// org's public IXP capacity and its (hidden) PNI capacity with the CDN.
// Paper shape: R² ≈ 0.47 — a usable but coarse proxy.
func Figure13(l *Lab) *Result {
	ix := l.IXPData(PrimaryCDNDay)
	var xs, ys []float64
	// Pairs() is sorted, so the regression's input order (and its float
	// sums) cannot vary with map iteration.
	for _, pair := range ix.Pairs() {
		capv := ix.Capacities[pair]
		pni := ix.PNI[pair]
		if pni <= 0 {
			continue
		}
		// The paper's plot covers the CDN's interconnect range,
		// 0–3000 Gbps; hypergiant-scale outliers beyond that would
		// dominate a linear fit.
		if capv/ixpGbps > 3000 || pni/ixpGbps > 3000 {
			continue
		}
		xs = append(xs, capv/ixpGbps)
		ys = append(ys, pni/ixpGbps)
	}
	fit := stats.LinearRegression(xs, ys)

	var b strings.Builder
	fmt.Fprintf(&b, "PNI(Gbps) = %.2f + %.3f * IXP(Gbps)   R² = %.3f over %d orgs\n",
		fit.Intercept, fit.Slope, fit.R2, fit.N)
	return &Result{
		ID:    "Figure 13 (Appendix E)",
		Title: "IXP capacity vs PNI capacity",
		Text:  b.String(),
		Metrics: map[string]float64{
			"r2":    fit.R2,
			"slope": fit.Slope,
			"orgs":  float64(fit.N),
		},
		Paper: map[string]float64{"r2": 0.47},
	}
}

const ixpGbps = 1e9
