package apnic

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dates"
)

// samePointer reports whether two maps share the same underlying storage —
// the memo's "repeat lookups return the cached instance" contract.
func samePointer(a, b map[string]float64) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// memoGrid is the sampled (country, day) grid for the memo regression
// tests: a spread of market sizes and dates covering the Russia ads
// pause, shutdown-prone countries, and plain markets.
func memoGrid() (ccs []string, days []dates.Date) {
	ccs = []string{"DE", "IN", "RU", "MM", "NO", "US", "FR", "TM"}
	days = []dates.Date{
		dates.New(2021, 6, 1),
		dates.New(2022, 3, 15), // just after the Russia ads pause
		dates.New(2023, 7, 20),
		dates.New(2024, 2, 29),
		dates.New(2024, 12, 25),
	}
	return ccs, days
}

// weekOf returns the days of d's noise week (DayNumber()/7) that fall in
// d's calendar year, oldest first.
func weekOf(d dates.Date) []dates.Date {
	var out []dates.Date
	wk := d.DayNumber() / 7
	for dn := wk*7 - 6; dn <= wk*7+6; dn++ {
		if day := dates.FromDayNumber(dn); dn/7 == wk && day.Year == d.Year {
			out = append(out, day)
		}
	}
	return out
}

// checkScansMatchReference compares the table-noise scans of one
// (country, day), uncached and through the memo front doors, with the
// inline-noise reference of resolved_test.go.
func checkScansMatchReference(t *testing.T, g *Generator, cc string, d dates.Date) {
	t.Helper()
	wantS, wantU := refCountryTotals(g, cc, d)
	for _, got := range []struct {
		name string
		scan func(string, dates.Date) (int64, float64)
	}{{"uncached", g.CountryTotalsUncached}, {"memo", g.CountryTotals}} {
		if gotS, gotU := got.scan(cc, d); gotS != wantS || math.Float64bits(gotU) != math.Float64bits(wantU) {
			t.Fatalf("%s CountryTotals(%s, %s) = (%d, %v), reference (%d, %v)", got.name, cc, d, gotS, gotU, wantS, wantU)
		}
	}
	want := refCountryOrgShares(g, cc, d)
	for _, got := range []struct {
		name string
		scan func(string, dates.Date) map[string]float64
	}{{"uncached", g.CountryOrgSharesUncached}, {"memo", g.CountryOrgShares}} {
		shares := got.scan(cc, d)
		if len(shares) != len(want) {
			t.Fatalf("%s CountryOrgShares(%s, %s): %d orgs, reference %d", got.name, cc, d, len(shares), len(want))
		}
		for id, v := range want {
			if gv, ok := shares[id]; !ok || math.Float64bits(gv) != math.Float64bits(v) {
				t.Fatalf("%s CountryOrgShares(%s, %s)[%s] = %v, reference %v", got.name, cc, d, id, gv, v)
			}
		}
	}
}

// TestCountryTotalsMemoEqualsUncached checks the memoized front door
// returns exactly what the raw scan computes, for first and repeat
// lookups, across a sampled grid.
func TestCountryTotalsMemoEqualsUncached(t *testing.T) {
	g := testGen()
	ref := testGen() // separate generator: its table stays cold per pair
	ccs, days := memoGrid()
	for _, cc := range ccs {
		for _, d := range days {
			wantS, wantU := ref.CountryTotalsUncached(cc, d)
			for pass := 0; pass < 2; pass++ { // miss then hit
				gotS, gotU := g.CountryTotals(cc, d)
				if gotS != wantS || gotU != wantU {
					t.Fatalf("CountryTotals(%s, %s) pass %d = (%d, %v), uncached (%d, %v)",
						cc, d, pass, gotS, gotU, wantS, wantU)
				}
			}
		}
	}
	scans, _ := g.MemoStats()
	if want := int64(len(ccs) * len(days)); scans != want {
		t.Fatalf("totals scans = %d, want %d (one per distinct pair)", scans, want)
	}
}

// TestCountryOrgSharesMemoEqualsUncached is the same regression for the
// share maps: identical keys and bit-identical values, and repeat
// lookups return the same map.
func TestCountryOrgSharesMemoEqualsUncached(t *testing.T) {
	g := testGen()
	ref := testGen()
	ccs, days := memoGrid()
	for _, cc := range ccs {
		for _, d := range days {
			want := ref.CountryOrgSharesUncached(cc, d)
			got := g.CountryOrgShares(cc, d)
			if len(got) != len(want) {
				t.Fatalf("shares(%s, %s): %d orgs memoized, %d uncached", cc, d, len(got), len(want))
			}
			for id, v := range want {
				if got[id] != v {
					t.Fatalf("shares(%s, %s)[%s] = %v memoized, %v uncached", cc, d, id, got[id], v)
				}
			}
			if again := g.CountryOrgShares(cc, d); !samePointer(again, got) {
				t.Fatalf("repeat lookup returned a fresh map for (%s, %s)", cc, d)
			}
		}
	}
	_, scans := g.MemoStats()
	if want := int64(len(ccs) * len(days)); scans != want {
		t.Fatalf("share scans = %d, want %d (one per distinct pair)", scans, want)
	}
}

// TestTableFillsOnceConcurrent has 16 goroutines look up every day of a
// week that spans a year boundary, in several markets, through both
// front doors at once: one totals fill and one shares fill per
// (country, day), one noise vector per (country, year, week), and every
// goroutine sees the same share map.
func TestTableFillsOnceConcurrent(t *testing.T) {
	ccs := []string{"DE", "IN", "MM", "NO", "US"}
	dec31 := dates.New(2018, 12, 31)
	days := append(weekOf(dec31), weekOf(dec31.AddDays(1))...)
	g := testGen()
	const goroutines = 16
	type seen struct {
		cc string
		d  dates.Date
		m  map[string]float64
	}
	maps := make([][]seen, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range days {
				d := days[(i+j)%len(days)]
				for _, cc := range ccs {
					g.CountryTotals(cc, d)
					maps[i] = append(maps[i], seen{cc, d, g.CountryOrgShares(cc, d)})
				}
			}
		}()
	}
	wg.Wait()
	pairs := len(ccs) * len(days)
	if tScans, sScans := g.MemoStats(); tScans != int64(pairs) || sScans != int64(pairs) {
		t.Fatalf("fills = (%d totals, %d shares), want %d each", tScans, sScans, pairs)
	}
	if weeks := 2 * len(ccs); g.NoiseFills() != int64(weeks) || g.Plans() != weeks {
		t.Fatalf("%d noise fills and %d year plans, want %d of each (one per country-year-week)", g.NoiseFills(), g.Plans(), weeks)
	}
	for i := range maps {
		for _, s := range maps[i] {
			if !samePointer(s.m, g.CountryOrgShares(s.cc, s.d)) {
				t.Fatalf("goroutine %d saw a different map instance for (%s, %s)", i, s.cc, s.d)
			}
		}
	}
	for _, cc := range ccs {
		for _, d := range days {
			checkScansMatchReference(t, g, cc, d)
		}
	}
}

// TestNoiseMemoKeyedByYear scans two days of one noise week that fall in
// different calendar years, in a market whose active entries change at
// the year boundary. A table keyed without the year would hand the
// second day a vector aligned with the first day's entries: misaligned
// noise, or an index past its end.
func TestNoiseMemoKeyedByYear(t *testing.T) {
	const cc = "DE"
	dec31, jan1 := dates.New(2018, 12, 31), dates.New(2019, 1, 1)
	if dec31.DayNumber()/7 != jan1.DayNumber()/7 {
		t.Fatalf("%s and %s fall in different noise weeks", dec31, jan1)
	}
	m := testW.Market(cc)
	la, lb := len(m.ActiveEntries(dec31)), len(m.ActiveEntries(jan1))
	if la != 29 || lb != 28 {
		t.Fatalf("%s has %d active entries on %s and %d on %s; the test needs 29 and 28", cc, la, dec31, lb, jan1)
	}
	for _, order := range [][2]dates.Date{{dec31, jan1}, {jan1, dec31}} {
		g := testGen()
		for _, d := range order {
			checkScansMatchReference(t, g, cc, d)
		}
		if fills, plans := g.NoiseFills(), g.Plans(); fills != 2 || plans != 2 {
			t.Fatalf("order %v: %d noise fills and %d year plans, want one of each per year", order, fills, plans)
		}
		if na, nb := g.NoiseLen(cc, dec31), g.NoiseLen(cc, jan1); na != la || nb != lb {
			t.Fatalf("order %v: noise vectors of %d and %d entries, want %d and %d", order, na, nb, la, lb)
		}
	}
}

// TestNoiseMemoOneFillPerWeek has 16 goroutines scan every day of one
// week in several markets at once, through the uncached scans so the
// week's noise is the only thing shared: exactly one noise vector is
// drawn per (country, year, week), no day slot is filled, and every
// scan still matches the reference.
func TestNoiseMemoOneFillPerWeek(t *testing.T) {
	ccs := []string{"DE", "IN", "MM", "NO", "US"}
	start := dates.FromDayNumber(dates.New(2023, 7, 20).DayNumber() / 7 * 7)
	week := weekOf(start)
	if len(week) != 7 {
		t.Fatalf("%s's noise week has %d days in its year, want 7", start, len(week))
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
	if fills, plans := g.NoiseFills(), g.Plans(); fills != int64(len(ccs)) || plans != len(ccs) {
		t.Fatalf("%d noise fills and %d year plans, want %d of each", fills, plans, len(ccs))
	}
	if tScans, sScans := g.MemoStats(); tScans != 0 || sScans != 0 {
		t.Fatalf("uncached scans filled %d totals and %d shares days, want none", tScans, sScans)
	}
	for _, cc := range ccs {
		for _, d := range week {
			checkScansMatchReference(t, g, cc, d)
		}
	}
}

// TestTableMatchesReferenceOutsideStudy compares table answers with the
// reference scans on every day of two year-boundary weeks, on dates
// before and after the 2013–2024 study period, and before 1970, where
// DayNumber is negative and its truncating /7 makes week 0 span
// 1969-12-26..1970-01-07.
func TestTableMatchesReferenceOutsideStudy(t *testing.T) {
	days := append(weekOf(dates.New(2018, 12, 31)), weekOf(dates.New(2019, 1, 1))...)
	days = append(days, weekOf(dates.New(1969, 12, 31))...)
	days = append(days, weekOf(dates.New(1970, 1, 1))...)
	days = append(days,
		dates.New(2011, 5, 17), dates.New(2030, 8, 2), dates.New(1965, 3, 9), dates.New(1965, 3, 14))
	g := testGen()
	for _, cc := range []string{"DE", "MM", "US"} {
		for _, d := range days {
			checkScansMatchReference(t, g, cc, d)
		}
	}
}

// TestGenerateLeavesTableEmpty pins that report generation draws its
// noise inline: a generator that only builds reports, like the ones the
// server keeps for its whole life, builds no year plan and fills nothing.
func TestGenerateLeavesTableEmpty(t *testing.T) {
	g := testGen()
	for _, d := range []dates.Date{dates.New(2018, 12, 31), dates.New(2019, 1, 1), dates.New(2023, 7, 20), dates.New(2024, 4, 21)} {
		g.Generate(d)
		g.DayCounts(d)
		g.OrgSamples("DE", testW.Market("DE").ActiveEntries(d)[0].Org.ID, d)
	}
	tScans, sScans := g.MemoStats()
	if fills, plans := g.NoiseFills(), g.Plans(); fills != 0 || plans != 0 || tScans != 0 || sScans != 0 {
		t.Fatalf("Generate left %d noise fills, %d year plans and (%d, %d) day fills, want none", fills, plans, tScans, sScans)
	}
}

// BenchmarkCountryOrgSharesMemoized measures the hot repeat-lookup path
// the stability analysis pays after the first scan of a pair.
func BenchmarkCountryOrgSharesMemoized(b *testing.B) {
	g := testGen()
	d := dates.New(2023, 7, 20)
	g.CountryOrgShares("DE", d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CountryOrgShares("DE", d)
	}
}

// BenchmarkCountryOrgSharesUncached is the same lookup without the memo —
// what every repeat (country, day) scan cost before memoization.
func BenchmarkCountryOrgSharesUncached(b *testing.B) {
	g := testGen()
	d := dates.New(2023, 7, 20)
	for i := 0; i < b.N; i++ {
		g.CountryOrgSharesUncached("DE", d)
	}
}
