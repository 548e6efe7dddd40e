package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/report"
)

// ExtDrivers implements §6's stated future work: identify the key players
// driving access-network consolidation, per contrasting country. For each
// of a consolidating (IN), a diversifying (BR) and a merging (CH) market
// it lists the organizations with the largest share swings 2019 → 2024.
func ExtDrivers(l *Lab) *Result {
	an := elasticityAnalysis(l)
	before := yearShares(l, an, 2019)
	after := yearShares(l, an, 2024)

	metrics := map[string]float64{}
	var b strings.Builder
	for _, cc := range []string{"IN", "BR", "CH"} {
		drivers := core.ConsolidationDrivers(before[cc], after[cc], 0)
		if len(drivers) == 0 {
			continue
		}
		top := drivers[0]
		bottom := drivers[len(drivers)-1]
		var rows [][]string
		for _, d := range drivers[:min(4, len(drivers))] {
			rows = append(rows, []string{d.Org, report.Pct(100 * d.Before), report.Pct(100 * d.After), report.F(100*d.Delta, 1) + "pp"})
		}
		rows = append(rows, []string{bottom.Org, report.Pct(100 * bottom.Before), report.Pct(100 * bottom.After), report.F(100*bottom.Delta, 1) + "pp"})
		fmt.Fprintf(&b, "== %s: top gainers and biggest loser, 2019 -> 2024 ==\n", cc)
		b.WriteString(report.Table([]string{"Org", "2019", "2024", "change"}, rows))
		b.WriteString("\n")
		metrics[strings.ToLower(cc)+"_top_gain_pp"] = 100 * top.Delta
		metrics[strings.ToLower(cc)+"_top_loss_pp"] = 100 * bottom.Delta
	}
	return &Result{
		ID:      "Extension: consolidation drivers",
		Title:   "Key players driving consolidation (§6 future work)",
		Text:    b.String(),
		Metrics: metrics,
	}
}

// ExtTrafficModel implements §5.3's stated future work: train the
// APNIC+IXP traffic model where ground truth exists and evaluate it
// out-of-sample, reporting in- vs out-of-fold log-space R².
func ExtTrafficModel(l *Lab) *Result {
	rep := l.Report(PrimaryCDNDay)
	snap := l.Snapshot(PrimaryCDNDay)
	ix := l.IXPData(PrimaryCDNDay)

	var ta, tx, tv []float64
	for _, cc := range l.W.Countries() {
		aSh := rep.CountryOrgUsers(l.W.Registry, cc)
		caps := ix.CountryCapacities(cc)
		// Sorted summation: float addition order must not depend on map
		// iteration, or tx (and the fitted R²) drifts in the last bits
		// from run to run.
		capIDs := make([]string, 0, len(caps))
		for id := range caps {
			capIDs = append(capIDs, id)
		}
		sort.Strings(capIDs)
		total := 0.0
		for _, id := range capIDs {
			total += caps[id]
		}
		// Iterate in sorted org order: fold assignment in the
		// cross-validation below is positional, so map-iteration order
		// would leak into out_sample_r2 and break run-to-run determinism.
		vols := snap.VolumeShares(cc)
		ids := make([]string, 0, len(vols))
		for id := range vols {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			ta = append(ta, aSh[id])
			if total > 0 {
				tx = append(tx, caps[id]/total)
			} else {
				tx = append(tx, 0)
			}
			tv = append(tv, vols[id])
		}
	}
	cv, ok := core.CrossValidateTrafficModel(ta, tx, tv, 5)
	if !ok {
		return &Result{
			ID:      "Extension: traffic model",
			Title:   "Cross-validated APNIC+IXP traffic model (§5.3 future work)",
			Text:    "cross-validation failed: insufficient data\n",
			Metrics: map[string]float64{"ok": 0},
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d-fold cross-validation over %d (country, org) observations\n", cv.Folds, len(tv))
	fmt.Fprintf(&b, "in-sample  log-space R²: %.3f\n", cv.InSampleR2)
	fmt.Fprintf(&b, "out-sample log-space R²: %.3f\n", cv.OutSampleR2)
	b.WriteString("\nan out-of-sample R² close to the in-sample value means the blend\n")
	b.WriteString("generalizes: traffic can be estimated from public inputs alone.\n")
	return &Result{
		ID:    "Extension: traffic model",
		Title: "Cross-validated APNIC+IXP traffic model (§5.3 future work)",
		Text:  b.String(),
		Metrics: map[string]float64{
			"in_sample_r2":  cv.InSampleR2,
			"out_sample_r2": cv.OutSampleR2,
			"observations":  float64(len(tv)),
		},
	}
}
