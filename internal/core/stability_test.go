package core

import (
	"math"
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

func TestBestDay(t *testing.T) {
	ratios := map[string]float64{
		"2024-01-01": 40,
		"2024-01-02": 25, // best
		"2024-01-03": 60,
		"2024-01-04": 0, // no data — skipped
	}
	day, ok := BestDay(ratios)
	if !ok || day != "2024-01-02" {
		t.Fatalf("BestDay = %q, %v", day, ok)
	}
	if _, ok := BestDay(map[string]float64{"x": 0}); ok {
		t.Fatal("all-zero ratios should fail")
	}
	if _, ok := BestDay(nil); ok {
		t.Fatal("empty ratios should fail")
	}
}

func TestBestDayDeterministicTies(t *testing.T) {
	// Equal ratios: the earliest day wins (sorted iteration).
	ratios := map[string]float64{"2024-01-03": 10, "2024-01-01": 10, "2024-01-02": 10}
	day, _ := BestDay(ratios)
	if day != "2024-01-01" {
		t.Fatalf("tie-break day = %s", day)
	}
}

// TestBestDayDateMatchesBestDay checks the date-keyed variant selects the
// same day as the string-keyed rule over identical candidates, including
// the skip-zero and tie-break behavior.
func TestBestDayDateMatchesBestDay(t *testing.T) {
	byDate := map[dates.Date]float64{
		dates.New(2024, 1, 1): 40,
		dates.New(2024, 1, 2): 25, // best
		dates.New(2024, 1, 3): 60,
		dates.New(2024, 1, 4): 0, // no data — skipped
	}
	byLabel := map[string]float64{}
	for d, r := range byDate {
		byLabel[d.String()] = r
	}
	day, ok := BestDayDate(byDate)
	label, lok := BestDay(byLabel)
	if !ok || !lok || day.String() != label {
		t.Fatalf("BestDayDate = %s (%v), BestDay = %s (%v)", day, ok, label, lok)
	}

	ties := map[dates.Date]float64{
		dates.New(2024, 1, 3): 10,
		dates.New(2024, 1, 1): 10,
		dates.New(2024, 1, 2): 10,
	}
	if day, _ := BestDayDate(ties); day != dates.New(2024, 1, 1) {
		t.Fatalf("tie-break day = %s, want earliest", day)
	}

	if _, ok := BestDayDate(map[dates.Date]float64{dates.New(2024, 1, 1): 0}); ok {
		t.Fatal("all-zero ratios should fail")
	}
	if _, ok := BestDayDate(nil); ok {
		t.Fatal("empty ratios should fail")
	}
}

func TestGranularitySteps(t *testing.T) {
	if Daily.Step() != 1 || Weekly.Step() != 7 || Monthly.Step() != 30 || Yearly.Step() != 365 {
		t.Fatal("granularity steps wrong")
	}
	if Granularity("bogus").Step() != 1 {
		t.Fatal("unknown granularity should default to 1")
	}
}
