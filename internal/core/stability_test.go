package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/dates"
)

func TestStabilityDistance(t *testing.T) {
	a := map[string]float64{"x": 0.6, "y": 0.4}
	if d := StabilityDistance(a, a); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
	b := map[string]float64{"x": 0.4, "y": 0.6}
	if d := StabilityDistance(a, b); math.Abs(d-0.2) > 1e-12 {
		t.Fatalf("swap distance = %v, want 0.2", d)
	}
	// An org disappearing entirely moves its full share.
	c := map[string]float64{"x": 1.0}
	if d := StabilityDistance(a, c); math.Abs(d-0.4) > 1e-12 {
		t.Fatalf("disappearance distance = %v, want 0.4", d)
	}
	if !math.IsNaN(StabilityDistance(nil, a)) {
		t.Fatal("empty snapshot should be NaN")
	}
}

// bestDayByLabel is the §5.1.2 rule over "YYYY-MM-DD" labels, which sort
// chronologically: the reference BestDay must agree with.
func bestDayByLabel(ratios map[string]float64) (day string, ok bool) {
	keys := make([]string, 0, len(ratios))
	for k := range ratios {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best := math.Inf(1)
	for _, k := range keys {
		if r := ratios[k]; r > 0 && r < best {
			best = r
			day = k
			ok = true
		}
	}
	return day, ok
}

// TestBestDayMatchesLabelRule checks BestDay selects the same day as the
// label-keyed reference over identical candidates, including the
// skip-zero and earliest-day tie-break behavior.
func TestBestDayMatchesLabelRule(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ratios map[dates.Date]float64
		want   dates.Date
		ok     bool
	}{
		{"smallest positive ratio", map[dates.Date]float64{
			dates.New(2024, 1, 1): 40,
			dates.New(2024, 1, 2): 25, // best
			dates.New(2024, 1, 3): 60,
			dates.New(2024, 1, 4): 0, // no data — skipped
		}, dates.New(2024, 1, 2), true},
		{"ties go to the earliest day", map[dates.Date]float64{
			dates.New(2024, 1, 3): 10,
			dates.New(2024, 1, 1): 10,
			dates.New(2024, 1, 2): 10,
		}, dates.New(2024, 1, 1), true},
		{"all zero", map[dates.Date]float64{dates.New(2024, 1, 1): 0}, dates.Date{}, false},
		{"empty", nil, dates.Date{}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			day, ok := BestDay(tc.ratios)
			if ok != tc.ok || (ok && day != tc.want) {
				t.Errorf("BestDay = %s (%v), want %s (%v)", day, ok, tc.want, tc.ok)
			}
			byLabel := map[string]float64{}
			for d, r := range tc.ratios {
				byLabel[d.String()] = r
			}
			if label, lok := bestDayByLabel(byLabel); lok != ok || (ok && label != day.String()) {
				t.Errorf("BestDay = %s (%v), label rule = %s (%v)", day, ok, label, lok)
			}
		})
	}
}
