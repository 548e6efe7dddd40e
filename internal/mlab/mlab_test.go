package mlab

import (
	"math"
	"testing"

	"repro/internal/dates"
	"repro/internal/world"
)

var testW = world.MustBuild(world.Config{Seed: 11})

func TestDeterministic(t *testing.T) {
	d := dates.New(2024, 3, 1)
	a := New(testW, 4).Generate(d)
	b := New(testW, 4).Generate(d)
	if len(a.Counts) != len(b.Counts) {
		t.Fatal("count sets differ")
	}
	for k, v := range a.Counts {
		if b.Counts[k] != v {
			t.Fatalf("nondeterministic count for %v", k)
		}
	}
}

func TestMonthNormalization(t *testing.T) {
	g := New(testW, 4)
	a := g.Generate(dates.New(2024, 3, 1))
	b := g.Generate(dates.New(2024, 3, 17))
	if a.Month != b.Month {
		t.Fatal("same month should normalize to the same dataset key")
	}
	if len(a.Counts) != len(b.Counts) {
		t.Fatal("same-month datasets differ")
	}
}

func TestIntegrationGating(t *testing.T) {
	g := New(testW, 4)
	ds := g.Generate(dates.New(2024, 3, 1))
	perUser := func(cc string) float64 {
		total := 0.0
		for k, v := range ds.Counts {
			if k.Country == cc {
				total += v
			}
		}
		return total / testW.TotalUsers(cc, ds.Month)
	}
	// France is integrated, Myanmar and Turkmenistan are not.
	if !g.Integrated("FR") || g.Integrated("MM") || g.Integrated("TM") {
		t.Fatal("integration flags wrong")
	}
	if perUser("FR") < 10*perUser("TM") {
		t.Errorf("FR tests/user %v not ≫ TM %v", perUser("FR"), perUser("TM"))
	}
}

func TestSharesCorrelateWithTruth(t *testing.T) {
	ds := New(testW, 4).Generate(dates.New(2024, 3, 1))
	shares := ds.CountryShares("DE")
	if len(shares) < 3 {
		t.Fatalf("only %d German orgs in M-Lab", len(shares))
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
	// The true market leader should be the M-Lab leader too (savvy bias
	// is mild in a high-reach country).
	argmax := func(m map[string]float64) string {
		best, bid := -1.0, ""
		for k, v := range m {
			if v > best {
				best, bid = v, k
			}
		}
		return bid
	}
	truth := map[string]float64{}
	for _, e := range testW.Market("DE").ActiveEntries(ds.Month) {
		if e.Org.Type.HostsUsers() {
			truth[e.Org.ID] = testW.TrueUsers("DE", e.Org.ID, ds.Month)
		}
	}
	if argmax(shares) != argmax(truth) {
		t.Errorf("M-Lab leader %s != true leader %s", argmax(shares), argmax(truth))
	}
}

func TestEyeballsOnly(t *testing.T) {
	ds := New(testW, 4).Generate(dates.New(2024, 3, 1))
	for k := range ds.Counts {
		o, ok := testW.Registry.ByID(k.Org)
		if !ok {
			t.Fatalf("unknown org %v", k)
		}
		if !o.Type.HostsUsers() {
			t.Errorf("non-eyeball org %s in speed tests", k.Org)
		}
	}
}

func TestCountriesCovered(t *testing.T) {
	ds := New(testW, 4).Generate(dates.New(2024, 3, 1))
	seen := map[string]bool{}
	for k := range ds.Counts {
		seen[k.Country] = true
	}
	if len(seen) < 40 {
		t.Fatalf("M-Lab sees %d countries", len(seen))
	}
}
