package apnic

import (
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

// TestCountryTotalsMemoEqualsUncached checks the memoized front door
// returns exactly what the raw scan computes, for first and repeat
// lookups, across a sampled grid.
func TestCountryTotalsMemoEqualsUncached(t *testing.T) {
	g := testGen()
	ref := testGen() // separate generator: its memo stays cold per pair
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
// share maps: identical keys and bit-identical values.
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

// TestMemoSingleflightConcurrent hammers one (country, day) pair from
// many goroutines: one scan, one shared map instance.
func TestMemoSingleflightConcurrent(t *testing.T) {
	g := testGen()
	d := dates.New(2023, 7, 20)
	const goroutines = 32
	maps := make([]map[string]float64, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			maps[i] = g.CountryOrgShares("DE", d)
			g.CountryTotals("DE", d)
		}()
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if !samePointer(maps[i], maps[0]) {
			t.Fatalf("goroutine %d saw a different map instance", i)
		}
	}
	tScans, sScans := g.MemoStats()
	if tScans != 1 || sScans != 1 {
		t.Fatalf("scans = (%d totals, %d shares), want 1 each", tScans, sScans)
	}
	if totals, shares := g.MemoLen(); totals != 1 || shares != 1 {
		t.Fatalf("memo lengths = (%d, %d), want 1 each", totals, shares)
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
