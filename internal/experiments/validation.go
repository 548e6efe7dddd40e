package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/stats"
)

// Figure2 compares the Broadband Subscriber dataset against APNIC user
// percentages across the survey countries (§4.1). Paper shape: global
// R² ≈ 0.72 against the 1:1 line, strong agreement for most countries,
// negative R² for a handful (Russia, Brazil, Korea, Japan, Poland in the
// paper's table), and mobile-heavy carriers overrepresented in APNIC.
func Figure2(l *Lab) *Result {
	bb := l.BroadbandData(BroadbandDay)
	rep := l.Report(BroadbandDay)

	var allX, allY []float64
	type ccRow struct {
		cc       string
		coverage float64 // % of APNIC country users covered by surveyed orgs
		r2       float64
	}
	var ccRows []ccRow
	mobileOverrep := 0

	for _, cc := range bb.Countries() {
		survey := bb.Shares[cc]
		apnicCountry := rep.CountryOrgUsers(l.W.Registry, cc)

		// Renormalize APNIC over the surveyed orgs (§4.1). Sorted-order
		// iteration keeps the float sums (and the R² fits below, whose
		// input order these loops set) bit-reproducible across runs.
		var apnicTotal, surveyedTotal float64
		for _, id := range sortedMetricKeys(apnicCountry) {
			v := apnicCountry[id]
			apnicTotal += v
			if _, ok := survey[id]; ok {
				surveyedTotal += v
			}
		}
		if apnicTotal == 0 || surveyedTotal == 0 {
			continue
		}
		var xs, ys []float64
		for _, id := range sortedMetricKeys(survey) {
			sv := survey[id]
			av := apnicCountry[id] / surveyedTotal
			xs = append(xs, 100*sv)
			ys = append(ys, 100*av)
			allX = append(allX, 100*sv)
			allY = append(allY, 100*av)
			// A mobile-heavy org overrepresented in APNIC?
			e := l.W.Entry(cc, id)
			if e != nil && e.MobileShare > 0.4 && av > sv*1.3 && av-sv > 0.03 {
				mobileOverrep++
			}
		}
		ccRows = append(ccRows, ccRow{
			cc:       cc,
			coverage: 100 * surveyedTotal / apnicTotal,
			r2:       stats.R2Identity(xs, ys),
		})
	}
	sort.Slice(ccRows, func(i, j int) bool { return ccRows[i].coverage < ccRows[j].coverage })

	globalR2 := stats.R2Identity(allX, allY)
	negR2 := 0
	rows := make([][]string, 0, len(ccRows))
	for _, r := range ccRows {
		if r.r2 < 0 {
			negR2++
		}
		rows = append(rows, []string{r.cc, report.Pct(r.coverage), report.F(r.r2, 2)})
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Global R² vs the 1:1 line over %d (country, org) points: %.2f\n", len(allX), globalR2)
	fmt.Fprintf(&b, "Mobile-heavy orgs overrepresented in APNIC: %d\n\n", mobileOverrep)
	b.WriteString(report.Table([]string{"Country", "% APNIC users in surveyed orgs", "R² vs 1:1"}, rows))

	return &Result{
		ID:    "Figure 2",
		Title: "Broadband Subscriber vs (renormalized) APNIC user percentages",
		Text:  b.String(),
		Metrics: map[string]float64{
			"global_r2":      globalR2,
			"countries":      float64(len(ccRows)),
			"negative_r2":    float64(negR2),
			"mobile_overrep": float64(mobileOverrep),
			"points":         float64(len(allX)),
		},
		Paper: map[string]float64{
			"global_r2":   0.72,
			"countries":   20,
			"negative_r2": 5,
		},
	}
}

// Figure3 regenerates the overlap bars of §4.2: raw (country, org) pair
// counts per dataset, then the weighted coverage of the common pairs by
// APNIC user estimates, CDN User-Agents and CDN traffic volume.
// Paper shape: ~40% of pairs are common, yet those pairs carry ≥96% of
// every weighting.
func Figure3(l *Lab) *Result {
	rep := l.Report(PrimaryCDNDay)
	snap := l.Snapshot(PrimaryCDNDay)

	apnicUsers := rep.OrgUsersCached(l.W.Registry)
	uas := snap.UserAgents()
	vols := snap.Volumes()

	usersOv := core.ComputeOverlap(apnicUsers, uas)
	volOv := core.ComputeOverlap(apnicUsers, vols)

	totalCDN := usersOv.Both + usersOv.BOnly
	pairPct := 0.0
	if totalCDN > 0 {
		pairPct = 100 * float64(usersOv.Both) / float64(totalCDN)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "(country, org) pairs: both=%d  cdn-only=%d  apnic-only=%d  (overlap = %.1f%% of CDN pairs)\n\n",
		usersOv.Both, usersOv.BOnly, usersOv.AOnly, pairPct)
	b.WriteString(report.Bar("APNIC users on common pairs", usersOv.BothPctA, 100, 40))
	b.WriteString(report.Bar("CDN User-Agents on common", usersOv.BothPctB, 100, 40))
	b.WriteString(report.Bar("CDN traffic vol on common", volOv.BothPctB, 100, 40))

	return &Result{
		ID:    "Figure 3",
		Title: "Overlap of (country, org) pairs, raw and weighted",
		Text:  b.String(),
		Metrics: map[string]float64{
			"pair_overlap_pct": pairPct,
			"users_cov_pct":    usersOv.BothPctA,
			"ua_cov_pct":       usersOv.BothPctB,
			"vol_cov_pct":      volOv.BothPctB,
			"apnic_only":       float64(usersOv.AOnly),
			"cdn_only":         float64(usersOv.BOnly),
		},
		Paper: map[string]float64{
			"pair_overlap_pct": 40,
			"users_cov_pct":    96.01,
			"ua_cov_pct":       98.65,
			"vol_cov_pct":      96.4,
		},
	}
}

// Table3 regenerates the per-country traffic coverage of the overlapping
// pairs (§4.2, Tables 3 and 5): within each country, what share of CDN
// traffic volume lands on pairs APNIC also sees. Paper shape: the vast
// majority of countries exceed 95%, only a handful fall below 90%.
func Table3(l *Lab) *Result {
	rep := l.Report(PrimaryCDNDay)
	snap := l.Snapshot(PrimaryCDNDay)
	apnicUsers := rep.OrgUsersCached(l.W.Registry)
	cov := core.PerCountryCoverage(apnicUsers, snap.Volumes())

	var nonzero []core.CountryCoverage
	zeros := 0
	above90, above95 := 0, 0
	for _, c := range cov {
		if c.Pct == 0 {
			zeros++
			continue
		}
		nonzero = append(nonzero, c)
		if c.Pct >= 90 {
			above90++
		}
		if c.Pct >= 95 {
			above95++
		}
	}
	var rows [][]string
	top := 20
	if len(nonzero) < top {
		top = len(nonzero)
	}
	for i := 0; i < top; i++ {
		rows = append(rows, []string{fmt.Sprintf("%d", i+1), nonzero[i].Country, report.F(nonzero[i].Pct, 2)})
	}
	rows = append(rows, []string{"...", "...", "..."})
	for i := len(nonzero) - top; i < len(nonzero); i++ {
		if i < top {
			continue
		}
		rows = append(rows, []string{fmt.Sprintf("%d", i+1), nonzero[i].Country, report.F(nonzero[i].Pct, 2)})
	}

	var b strings.Builder
	fmt.Fprintf(&b, "countries with data: %d (plus %d with 0%%); >=90%%: %d; >=95%%: %d\n\n", len(nonzero), zeros, above90, above95)
	b.WriteString(report.Table([]string{"Count", "Country", "% Vol"}, rows))

	fra90 := 0.0
	if len(nonzero) > 0 {
		fra90 = 100 * float64(above90) / float64(len(nonzero))
	}
	return &Result{
		ID:    "Table 3 / Table 5",
		Title: "Per-country CDN traffic volume on overlapping pairs",
		Text:  b.String(),
		Metrics: map[string]float64{
			"countries":    float64(len(nonzero)),
			"pct_above_90": fra90,
			"median_pct":   medianCoverage(nonzero),
		},
		Paper: map[string]float64{
			// "only 5 have less than 90%" out of 234 with data.
			"pct_above_90": 97.9,
			"median_pct":   99.8,
		},
	}
}

func medianCoverage(cov []core.CountryCoverage) float64 {
	if len(cov) == 0 {
		return math.NaN()
	}
	vals := make([]float64, len(cov))
	for i, c := range cov {
		vals[i] = c.Pct
	}
	return stats.Median(vals)
}

// figure4Sides computes the per-country agreement for one CDN metric.
func figure4Side(l *Lab, metric string) (map[string]core.Agreement, map[string]bool) {
	rep := l.Report(PrimaryCDNDay)
	snap := l.Snapshot(PrimaryCDNDay)

	agreements := map[string]core.Agreement{}
	principal := map[string]bool{}
	for _, cc := range snap.Countries() {
		apnicShares := rep.CountryOrgUsers(l.W.Registry, cc)
		var other map[string]float64
		if metric == "ua" {
			other = snap.UAShares(cc)
		} else {
			other = snap.VolumeShares(cc)
		}
		if len(apnicShares) == 0 {
			continue // no APNIC data at all: No Information
		}
		agreements[cc] = core.CompareShares(apnicShares, other)
		principal[cc] = core.PrincipalOrgMatch(apnicShares, other)
	}
	return agreements, principal
}

// Figure4 regenerates the agreement analysis of §4.3 for both CDN
// metrics. Paper shape: User-Agents — principal 93.9%, rank 54.2%,
// complete 51.2%; traffic volume — 91.0 / 40.5 / 36.5; UA agreement
// beats volume agreement on every count.
func Figure4(l *Lab) *Result {
	uaAgr, uaMatch := figure4Side(l, "ua")
	volAgr, volMatch := figure4Side(l, "vol")
	ua := core.Summarize(uaAgr, uaMatch)
	vol := core.Summarize(volAgr, volMatch)

	rows := [][]string{
		{"User-Agents", report.Pct(ua.PrincipalPct), report.Pct(ua.RankPct), report.Pct(ua.CompletePct), fmt.Sprintf("%d", ua.Countries)},
		{"Traffic volume", report.Pct(vol.PrincipalPct), report.Pct(vol.RankPct), report.Pct(vol.CompletePct), fmt.Sprintf("%d", vol.Countries)},
	}

	// The paper's named outliers for the UA comparison.
	var noAgreement []string
	for cc, a := range uaAgr {
		if a.Level == core.NoAgreement {
			noAgreement = append(noAgreement, cc)
		}
	}
	sort.Strings(noAgreement)

	var b strings.Builder
	b.WriteString(report.Table([]string{"Metric", "Principal org", "Rank", "Complete", "Countries"}, rows))
	fmt.Fprintf(&b, "\nNo-agreement countries (User-Agents): %s\n", strings.Join(noAgreement, " "))

	return &Result{
		ID:    "Figure 4",
		Title: "Agreement between APNIC user estimates and CDN metrics",
		Text:  b.String(),
		Metrics: map[string]float64{
			"ua_principal_pct":  ua.PrincipalPct,
			"ua_rank_pct":       ua.RankPct,
			"ua_complete_pct":   ua.CompletePct,
			"vol_principal_pct": vol.PrincipalPct,
			"vol_rank_pct":      vol.RankPct,
			"vol_complete_pct":  vol.CompletePct,
			"countries":         float64(ua.Countries),
			"ua_no_agreement":   float64(len(noAgreement)),
		},
		Paper: map[string]float64{
			"ua_principal_pct":  93.9,
			"ua_rank_pct":       54.2,
			"ua_complete_pct":   51.2,
			"vol_principal_pct": 91.0,
			"vol_rank_pct":      40.5,
			"vol_complete_pct":  36.5,
		},
	}
}

// Figure5 zooms into the paper's four outlier countries: Russia and
// Norway against User-Agents, India and Myanmar against traffic volume,
// reporting the per-country regression slope (the ρ annotations).
// Paper shape: Norway ρ≈0.29 (the VPN org drags the fit), India ρ≈0.39
// (cloud traffic invisible to APNIC), Myanmar ρ≈0.98 but noisy, Russia a
// scrambled cloud.
func Figure5(l *Lab) *Result {
	rep := l.Report(PrimaryCDNDay)
	snap := l.Snapshot(PrimaryCDNDay)

	slope := func(cc, metric string) (float64, float64) {
		apnicShares := rep.CountryOrgUsers(l.W.Registry, cc)
		var other map[string]float64
		if metric == "ua" {
			other = snap.UAShares(cc)
		} else {
			other = snap.VolumeShares(cc)
		}
		a, b, _ := stats.AlignShares(apnicShares, other)
		a = stats.Normalize(a)
		b = stats.Normalize(b)
		fit := stats.LinearRegression(a, b)
		return fit.Slope, stats.Pearson(a, b)
	}

	ruSlope, ruP := slope("RU", "ua")
	noSlope, noP := slope("NO", "ua")
	inSlope, inP := slope("IN", "vol")
	mmSlope, mmP := slope("MM", "vol")

	rows := [][]string{
		{"RU", "User-Agents", report.F(ruSlope, 2), report.F(ruP, 2)},
		{"NO", "User-Agents", report.F(noSlope, 2), report.F(noP, 2)},
		{"IN", "Traffic volume", report.F(inSlope, 2), report.F(inP, 2)},
		{"MM", "Traffic volume", report.F(mmSlope, 2), report.F(mmP, 2)},
	}
	return &Result{
		ID:    "Figure 5",
		Title: "Outlier (country, org) regressions",
		Text:  report.Table([]string{"Country", "CDN metric", "Slope (rho)", "Pearson"}, rows),
		Metrics: map[string]float64{
			"ru_slope": ruSlope, "ru_pearson": ruP,
			"no_slope": noSlope, "no_pearson": noP,
			"in_slope": inSlope, "in_pearson": inP,
			"mm_slope": mmSlope, "mm_pearson": mmP,
		},
		Paper: map[string]float64{
			"no_slope": 0.29,
			"in_slope": 0.39,
			"mm_slope": 0.98,
		},
	}
}
