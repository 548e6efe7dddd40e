package dates

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEpoch(t *testing.T) {
	if got := New(1970, 1, 1).DayNumber(); got != 0 {
		t.Fatalf("epoch day number = %d, want 0", got)
	}
	if got := New(1970, 1, 2).DayNumber(); got != 1 {
		t.Fatalf("epoch+1 = %d, want 1", got)
	}
	if got := New(1969, 12, 31).DayNumber(); got != -1 {
		t.Fatalf("epoch-1 = %d, want -1", got)
	}
}

func TestAgainstTimePackage(t *testing.T) {
	// Validate day numbers against the standard library over the paper's
	// full data range.
	start := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)
	epoch := time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 4500; i++ {
		tt := start.AddDate(0, 0, i)
		d := New(tt.Year(), int(tt.Month()), tt.Day())
		want := int(tt.Sub(epoch).Hours() / 24)
		if got := d.DayNumber(); got != want {
			t.Fatalf("%v day number = %d, want %d", d, got, want)
		}
		if rt := FromDayNumber(want); rt != d {
			t.Fatalf("round trip of %v gave %v", d, rt)
		}
	}
}

func TestLeapYears(t *testing.T) {
	if !New(2024, 2, 29).Valid() {
		t.Error("2024-02-29 should be valid")
	}
	if New(2023, 2, 29).Valid() {
		t.Error("2023-02-29 should be invalid")
	}
	if !New(2000, 2, 29).Valid() {
		t.Error("2000-02-29 should be valid (divisible by 400)")
	}
	if New(1900, 2, 29).Valid() {
		t.Error("1900-02-29 should be invalid (divisible by 100, not 400)")
	}
}

func TestParse(t *testing.T) {
	d, err := Parse("2024-04-21")
	if err != nil {
		t.Fatal(err)
	}
	if d != New(2024, 4, 21) {
		t.Fatalf("parsed %v", d)
	}
	if d.String() != "2024-04-21" {
		t.Fatalf("String = %q", d.String())
	}
	for _, bad := range []string{"2024-13-01", "2024-02-30", "garbage", "2024-04", "20x4-01-01"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestAddDaysAcrossBoundaries(t *testing.T) {
	cases := []struct {
		from Date
		n    int
		want Date
	}{
		{New(2023, 12, 31), 1, New(2024, 1, 1)},
		{New(2024, 2, 28), 1, New(2024, 2, 29)},
		{New(2024, 2, 29), 1, New(2024, 3, 1)},
		{New(2024, 1, 1), -1, New(2023, 12, 31)},
		{New(2013, 11, 1), 60, New(2013, 12, 31)},
	}
	for _, c := range cases {
		if got := c.from.AddDays(c.n); got != c.want {
			t.Errorf("%v + %d = %v, want %v", c.from, c.n, got, c.want)
		}
	}
}

func TestSubAndComparisons(t *testing.T) {
	a := New(2024, 4, 21)
	b := New(2024, 2, 21)
	if got := a.Sub(b); got != 60 {
		t.Fatalf("Sub = %d, want 60", got)
	}
	if !b.Before(a) || a.Before(b) || !a.After(b) {
		t.Fatal("comparison methods inconsistent")
	}
}

func TestRange(t *testing.T) {
	days := Range(New(2024, 1, 1), New(2024, 1, 10), 1)
	if len(days) != 10 {
		t.Fatalf("daily range length = %d, want 10", len(days))
	}
	weekly := Range(New(2024, 1, 1), New(2024, 1, 31), 7)
	if len(weekly) != 5 {
		t.Fatalf("weekly range length = %d, want 5", len(weekly))
	}
	if Range(New(2024, 1, 2), New(2024, 1, 1), 1) != nil {
		t.Fatal("reversed range should be nil")
	}
	if Range(New(2024, 1, 1), New(2024, 1, 2), 0) != nil {
		t.Fatal("zero step should be nil")
	}
}

// Property: DayNumber and FromDayNumber are inverses over a wide range.
func TestQuickRoundTrip(t *testing.T) {
	f := func(n int32) bool {
		day := int(n % 100000) // ±~270 years around the epoch
		return FromDayNumber(day).DayNumber() == day
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: AddDays(n).Sub(d) == n.
func TestQuickAddSub(t *testing.T) {
	f := func(n int16) bool {
		d := New(2020, 6, 15)
		return d.AddDays(int(n)).Sub(d) == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
