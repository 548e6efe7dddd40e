package core

import (
	"math"
	"sort"

	"repro/internal/dates"
	"repro/internal/stats"
)

// StabilityDistance computes the Kolmogorov–Smirnov-style distance
// between a country's per-org user share distributions at two times
// (§5.1.2): organizations are aligned on the union of keys (absent orgs
// count 0), and the distance is the maximum per-org share difference —
// "the number of users estimated to be in an organization differs by at
// least X% of a country's Internet population".
func StabilityDistance(sharesT, sharesT1 map[string]float64) float64 {
	if len(sharesT) == 0 || len(sharesT1) == 0 {
		return math.NaN()
	}
	a, b, _ := stats.AlignShares(sharesT, sharesT1)
	return stats.MaxShareDiff(a, b)
}

// BestDay picks, from a window of candidate days, the one with the
// smallest users-per-sample (elasticity) ratio — the paper's §5.1.2
// aggregation rule for choosing which daily APNIC snapshot to trust.
// ratios maps each candidate day to the country's ratio that day; days
// with ratio <= 0 (no data) are skipped, and ties go to the earliest
// day. ok is false if no candidate has data.
func BestDay(ratios map[dates.Date]float64) (day dates.Date, ok bool) {
	days := make([]dates.Date, 0, len(ratios))
	for d := range ratios {
		days = append(days, d)
	}
	sort.Slice(days, func(i, j int) bool { return days[i].DayNumber() < days[j].DayNumber() })
	best := math.Inf(1)
	for _, d := range days {
		if r := ratios[d]; r > 0 && r < best {
			best = r
			day = d
			ok = true
		}
	}
	return day, ok
}
