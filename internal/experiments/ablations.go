package experiments

import (
	"math"
	"sort"

	"repro/internal/apnic"
	"repro/internal/cdn"
	"repro/internal/core"
	"repro/internal/dates"
	"repro/internal/stats"
)

// Ablation experiments for the design choices DESIGN.md calls out. Each
// returns the headline metric(s) under a modified configuration, so that
// the benchmark harness can report how the paper's parameter choices
// shape the results.

// AblationKendallFilter recomputes Figure 4's User-Agent rank-agreement
// percentage with an alternative small-org filter threshold (the paper
// uses 0.5%). Without the filter, the long tail of tiny orgs degrades
// the rank statistic; too high a filter discards real signal.
func AblationKendallFilter(l *Lab, minShare float64) float64 {
	rep := l.Report(PrimaryCDNDay)
	snap := l.Snapshot(PrimaryCDNDay)

	strong, total := 0, 0
	for _, cc := range snap.Countries() {
		apnicShares := rep.CountryOrgUsers(l.W.Registry, cc)
		if len(apnicShares) == 0 {
			continue
		}
		res := core.CompareSharesFiltered(apnicShares, snap.UAShares(cc), minShare)
		if res.Level == core.NoInformation {
			continue
		}
		total++
		if !math.IsNaN(res.Kendall) && res.Kendall >= core.StrongCorrelation {
			strong++
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(strong) / float64(total)
}

// AblationBestDay compares monthly K-S stability (p90) for naive
// latest-day snapshots against the §5.1.2 best-day rule.
func AblationBestDay(l *Lab) (naiveP90, adjustedP90 float64) {
	ccs := figure8Countries(l)
	start := dates.New(2023, 6, 15)
	naive := stabilityDistances(l, ccs, start, 10, 30, false)
	adjusted := stabilityDistances(l, ccs, start, 10, 30, true)
	return stats.Quantile(naive, 0.9), stats.Quantile(adjusted, 0.9)
}

// AblationBotFilter recomputes the average APNIC↔CDN-volume Kendall-Tau
// with the CDN bot filter at a given score threshold (0 disables
// filtering; the paper uses 50). Unfiltered bot traffic inflates cloud
// and enterprise volumes and degrades rank agreement.
func AblationBotFilter(l *Lab, threshold int) float64 {
	gen := cdn.New(l.W, l.Seed)
	gen.BotThreshold = threshold
	snap := gen.Generate(PrimaryCDNDay)
	rep := l.Report(PrimaryCDNDay)

	var sum float64
	n := 0
	for _, cc := range snap.Countries() {
		apnicShares := rep.CountryOrgUsers(l.W.Registry, cc)
		if len(apnicShares) == 0 {
			continue
		}
		res := core.CompareShares(apnicShares, snap.VolumeShares(cc))
		if !math.IsNaN(res.Kendall) {
			sum += res.Kendall
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// AblationSamplingRate recomputes the CDN's pair coverage (the share of
// true (country, org) pairs it observes) at a given request sampling
// rate. The paper argues 1% is sufficient; far lower rates lose the tail.
func AblationSamplingRate(l *Lab, rate float64) float64 {
	gen := cdn.New(l.W, l.Seed)
	gen.SamplingRate = rate
	snap := gen.Generate(PrimaryCDNDay)
	pairs := l.W.CountryOrgPairs(PrimaryCDNDay)
	if len(pairs) == 0 {
		return 0
	}
	seen := 0
	for _, p := range pairs {
		if _, ok := snap.Stats[p]; ok {
			seen++
		}
	}
	return 100 * float64(seen) / float64(len(pairs))
}

// AblationMICGrid recomputes Figure 10's Europe MIC gain with an
// alternative grid-budget exponent (canonical: 0.6).
func AblationMICGrid(l *Lab, exponent float64) float64 {
	rep := l.Report(PrimaryCDNDay)
	snap := l.Snapshot(PrimaryCDNDay)

	var gains []float64
	for _, cc := range l.W.Countries() {
		m := l.W.Market(cc)
		if m.Country.Continent() != "Europe" {
			continue
		}
		apnicShares := rep.CountryOrgUsers(l.W.Registry, cc)
		vol := snap.VolumeShares(cc)
		keys := map[string]bool{}
		for k := range apnicShares {
			keys[k] = true
		}
		for k := range vol {
			keys[k] = true
		}
		if len(keys) < 8 {
			continue
		}
		var a, v []float64
		ids := make([]string, 0, len(keys))
		for k := range keys {
			ids = append(ids, k)
		}
		sort.Strings(ids) // deterministic order
		for _, id := range ids {
			a = append(a, apnicShares[id])
			v = append(v, vol[id])
		}
		mic := stats.MICBudget(a, v, exponent)
		if !math.IsNaN(mic) {
			gains = append(gains, mic)
		}
	}
	return stats.Median(gains)
}

// AblationMinSamples recomputes APNIC's (country, org) pair coverage with
// an alternative inclusion floor (the paper observes >= 120 samples). The
// floor is what drives Figure 3's "APNIC sees only ~40% of pairs".
func AblationMinSamples(l *Lab, minSamples int64) float64 {
	gen := apnic.New(l.W, l.ITU, l.Seed)
	gen.MinSamples = minSamples
	rep := gen.Generate(PrimaryCDNDay)
	users := rep.OrgUsersCached(l.W.Registry)
	pairs := l.W.CountryOrgPairs(PrimaryCDNDay)
	if len(pairs) == 0 {
		return 0
	}
	seen := 0
	for _, p := range pairs {
		if users[p] > 0 {
			seen++
		}
	}
	return 100 * float64(seen) / float64(len(pairs))
}
