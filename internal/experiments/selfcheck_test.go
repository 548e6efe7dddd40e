package experiments

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dates"
)

// TestBestDayBeforeMatchesCore checks that bestDayBefore's single pass
// picks the day core.BestDay picks from the same window's ratio map,
// over the APNIC memo grid's countries and days.
func TestBestDayBeforeMatchesCore(t *testing.T) {
	l := testLab(t)
	ccs := []string{"DE", "IN", "RU", "MM", "NO", "US", "FR", "TM"}
	days := []dates.Date{
		dates.New(2021, 6, 1),
		dates.New(2022, 3, 15),
		dates.New(2023, 7, 20),
		dates.New(2024, 2, 29),
		dates.New(2024, 12, 25),
	}
	for _, cc := range ccs {
		for _, d := range days {
			for _, window := range []int{60, 57, 5, 1, 0} {
				ratios := map[dates.Date]float64{}
				for off := 0; off < window; off += 5 {
					day := d.AddDays(-off)
					if s, u := l.APNIC.CountryTotals(cc, day); s > 0 {
						ratios[day] = core.ElasticityRatio(u, float64(s))
					}
				}
				want, ok := core.BestDay(ratios)
				if !ok {
					want = d
				}
				if got := bestDayBefore(l, cc, d, window); got != want {
					t.Errorf("bestDayBefore(%s, %s, %d) = %s, core.BestDay %s", cc, d, window, got, want)
				}
			}
		}
	}
}

// TestBestInWindowTieRule feeds bestInWindow and core.BestDay the same
// synthetic ratios, ties, non-positive and NaN ones included: both keep
// the earliest of equal minima and skip what is not a positive ratio.
func TestBestInWindowTieRule(t *testing.T) {
	d := dates.New(2024, 3, 1)
	for _, tc := range []struct {
		name   string
		ratios []float64 // by offset 0, 5, 10, ...; 0 is no ratio
	}{
		{"tie between newest and oldest", []float64{1, 2, 3, 1}},
		{"tie in the middle", []float64{3, 1, 1, 2}},
		{"all equal", []float64{2, 2, 2, 2}},
		{"non-positive and NaN skipped", []float64{0, -1, math.NaN(), 4}},
		{"no ratio at all", []float64{0, 0, -2}},
	} {
		byDay := map[dates.Date]float64{}
		for k, r := range tc.ratios {
			if r != 0 {
				byDay[d.AddDays(-5*k)] = r
			}
		}
		want, ok := core.BestDay(byDay)
		if !ok {
			want = d
		}
		got := bestInWindow(d, 5*len(tc.ratios), func(day dates.Date) float64 { return byDay[day] })
		if got != want {
			t.Errorf("%s: bestInWindow = %s, core.BestDay %s", tc.name, got, want)
		}
	}
}
