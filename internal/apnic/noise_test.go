package apnic

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dates"
)

// checkScansMatchReference compares the memoized-noise scans of one
// (country, day) with the inline-noise reference of resolved_test.go.
func checkScansMatchReference(t *testing.T, g *Generator, cc string, d dates.Date) {
	t.Helper()
	wantS, wantU := refCountryTotals(g, cc, d)
	if gotS, gotU := g.CountryTotalsUncached(cc, d); gotS != wantS || math.Float64bits(gotU) != math.Float64bits(wantU) {
		t.Fatalf("CountryTotals(%s, %s) = (%d, %v), reference (%d, %v)", cc, d, gotS, gotU, wantS, wantU)
	}
	want := refCountryOrgShares(g, cc, d)
	got := g.CountryOrgSharesUncached(cc, d)
	if len(got) != len(want) {
		t.Fatalf("CountryOrgShares(%s, %s): %d orgs, reference %d", cc, d, len(got), len(want))
	}
	for id, v := range want {
		if gv, ok := got[id]; !ok || math.Float64bits(gv) != math.Float64bits(v) {
			t.Fatalf("CountryOrgShares(%s, %s)[%s] = %v, reference %v", cc, d, id, gv, v)
		}
	}
}

// TestNoiseMemoKeyedByYear scans two days of one noise week that fall in
// different calendar years, in a market whose active entries change at
// the year boundary. A noise memo keyed without the year would hand the
// second day a vector aligned with the first day's entries: misaligned
// noise, or an index past its end.
func TestNoiseMemoKeyedByYear(t *testing.T) {
	const cc = "DE"
	dec31, jan1 := dates.New(2018, 12, 31), dates.New(2019, 1, 1)
	if dec31.DayNumber()/7 != jan1.DayNumber()/7 {
		t.Fatalf("%s and %s fall in different noise weeks", dec31, jan1)
	}
	m := testW.Market(cc)
	if la, lb := len(m.ActiveEntries(dec31)), len(m.ActiveEntries(jan1)); la == lb {
		t.Fatalf("%s has %d active entries on both %s and %s; the test needs a change", cc, la, dec31, jan1)
	}
	for _, order := range [][2]dates.Date{{dec31, jan1}, {jan1, dec31}} {
		g := testGen()
		for _, d := range order {
			checkScansMatchReference(t, g, cc, d)
		}
		if fills, entries := g.NoiseMemo(); fills != 2 || entries != 2 {
			t.Fatalf("order %v: %d noise fills, %d entries; want one per year", order, fills, entries)
		}
	}
}

// TestNoiseMemoOneFillPerWeek has 16 goroutines scan every day of one
// week in several markets at once, through the uncached scans so the
// noise memo is the only thing shared: exactly one noise vector is drawn
// per (country, year, week), and every scan still matches the reference.
func TestNoiseMemoOneFillPerWeek(t *testing.T) {
	ccs := []string{"DE", "IN", "MM", "NO", "US"}
	start := dates.FromDayNumber(dates.New(2023, 7, 20).DayNumber() / 7 * 7)
	week := make([]dates.Date, 7)
	for i := range week {
		week[i] = start.AddDays(i)
		if week[i].Year != start.Year || week[i].DayNumber()/7 != start.DayNumber()/7 {
			t.Fatalf("%s is not in %s's year and noise week", week[i], start)
		}
	}
	g := testGen()
	const goroutines = 16
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range week {
				d := week[(i+j)%len(week)]
				for _, cc := range ccs {
					g.CountryTotalsUncached(cc, d)
					g.CountryOrgSharesUncached(cc, d)
				}
			}
		}()
	}
	wg.Wait()
	if fills, entries := g.NoiseMemo(); fills != int64(len(ccs)) || entries != len(ccs) {
		t.Fatalf("%d noise fills, %d entries; want %d each (one per country-week)", fills, entries, len(ccs))
	}
	for _, cc := range ccs {
		for _, d := range week {
			checkScansMatchReference(t, g, cc, d)
		}
	}
}

// TestGenerateLeavesNoiseMemoEmpty pins that report generation draws its
// noise inline: a generator that only builds reports, like the ones the
// server keeps for its whole life, holds no noise vectors.
func TestGenerateLeavesNoiseMemoEmpty(t *testing.T) {
	g := testGen()
	for _, d := range []dates.Date{dates.New(2018, 12, 31), dates.New(2019, 1, 1), dates.New(2023, 7, 20), dates.New(2024, 4, 21)} {
		g.Generate(d)
		g.DayCounts(d)
		g.OrgSamples("DE", testW.Market("DE").ActiveEntries(d)[0].Org.ID, d)
	}
	if fills, entries := g.NoiseMemo(); fills != 0 || entries != 0 {
		t.Fatalf("Generate left %d noise fills and %d entries, want none", fills, entries)
	}
}
