package itu

import (
	"reflect"
	"testing"

	"repro/internal/dates"
)

// sampleDays spans the simulated decade, deliberately crossing week
// boundaries and the France 2019-05-13 anomaly week.
var sampleDays = []dates.Date{
	dates.New(2013, 11, 1),
	dates.New(2016, 2, 29),
	dates.New(2019, 5, 13),
	dates.New(2019, 5, 15),
	dates.New(2022, 3, 14),
	dates.New(2024, 12, 31),
}

// TestFrameMatchesDirectUsers pins the day-keyed adapter to the point
// API: for every (country, sampled day), the value read through the
// generated frame equals a direct Estimator.Users call.
func TestFrameMatchesDirectUsers(t *testing.T) {
	est := New(testW, 42)
	for _, d := range sampleDays {
		f := est.Generate(d).Frame()
		cc, users := f.Col("CC"), f.Col("Users")
		if cc == nil || users == nil {
			t.Fatalf("%s: frame missing columns", d)
		}
		byCC := make(map[string]float64, f.Rows())
		for i := 0; i < f.Rows(); i++ {
			byCC[cc.Strs[i]] = users.Floats[i]
		}
		countries := testW.Countries()
		if len(byCC) != len(countries) {
			t.Fatalf("%s: frame has %d countries; world has %d", d, len(byCC), len(countries))
		}
		for _, c := range countries {
			got, ok := byCC[c]
			if !ok {
				t.Fatalf("%s: frame is missing country %s", d, c)
			}
			if want := est.Users(c, d); got != want {
				t.Errorf("%s %s: frame Users = %v; direct call = %v", d, c, got, want)
			}
		}
	}
}

func TestTableRoundTripLossless(t *testing.T) {
	est := New(testW, 42)
	tab := est.Generate(dates.New(2019, 5, 13))
	back, err := TableFromFrame(tab.Frame())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tab, back) {
		t.Fatal("Table -> Frame -> Table changed the data")
	}
}

func TestTableTotalMatchesWorldTotal(t *testing.T) {
	est := New(testW, 42)
	d := dates.New(2020, 6, 1)
	var got float64
	for _, v := range est.Generate(d).Users {
		got += v
	}
	want := est.WorldTotal(d)
	// Summation order differs (map iteration vs sorted country order),
	// so allow float associativity slack.
	if diff := got - want; diff > 1e-6*want || diff < -1e-6*want {
		t.Fatalf("table users sum to %v; WorldTotal = %v", got, want)
	}
}
