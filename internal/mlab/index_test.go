package mlab

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/dates"
	"repro/internal/orgs"
	"repro/internal/stats"
)

// scanRow is the per-country accessor as it stood before the country
// index: a scan over every (country, org) pair of the dataset.
func scanRow(m map[orgs.CountryOrg]float64, country string) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		if k.Country == country {
			out[k.Org] = v
		}
	}
	return stats.NormalizeMap(out)
}

// sameRow reports the first difference between two per-org maps,
// comparing values bit for bit.
func sameRow(got, want map[string]float64) error {
	if got == nil {
		return fmt.Errorf("nil map")
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d orgs, want %d", len(got), len(want))
	}
	for id, v := range want {
		if g, ok := got[id]; !ok || math.Float64bits(g) != math.Float64bits(v) {
			return fmt.Errorf("[%s] = %v, want %v", id, g, v)
		}
	}
	return nil
}

// TestCountryIndexMatchesScan checks CountryShares against the full-map scan
// for every country (plus the CDN's Tor pseudo country and an unknown
// code), on a generated Dataset and on one rebuilt from its frame.
func TestCountryIndexMatchesScan(t *testing.T) {
	d := dates.New(2024, 3, 1)
	generated := New(testW, 4).Generate(d)
	rebuilt, err := DatasetFromFrame(New(testW, 4).Generate(d).Frame())
	if err != nil {
		t.Fatal(err)
	}
	for name, x := range map[string]*Dataset{"generated": generated, "rebuilt": rebuilt} {
		if len(x.Counts) == 0 {
			t.Fatalf("%s: empty Dataset", name)
		}
		for _, cc := range append(testW.Countries(), "T1", "ZZ") {
			if err := sameRow(x.CountryShares(cc), scanRow(x.Counts, cc)); err != nil {
				t.Fatalf("%s CountryShares(%s): %v", name, cc, err)
			}
		}
	}
}

// TestCountryIndexCallerOwnsResult mutates a returned map and checks the
// next call is unaffected.
func TestCountryIndexCallerOwnsResult(t *testing.T) {
	d := dates.New(2024, 3, 1)
	x := New(testW, 4).Generate(d)
	first := x.CountryShares("DE")
	if len(first) == 0 {
		t.Fatal("no orgs for DE")
	}
	for id := range first {
		first[id] = -1
	}
	first["junk"] = 1
	if err := sameRow(x.CountryShares("DE"), scanRow(x.Counts, "DE")); err != nil {
		t.Fatalf("CountryShares after mutation: %v", err)
	}
}

// TestCountryIndexConcurrentFirstUse makes the first per-country calls on
// a fresh Dataset from 8 goroutines at once (run under -race).
func TestCountryIndexConcurrentFirstUse(t *testing.T) {
	d := dates.New(2024, 3, 1)
	x := New(testW, 4).Generate(d)
	ccs := []string{"DE", "FR", "IN", "NO", "US", "BR", "MM", "JP"}
	start := make(chan struct{})
	errs := make(chan error, len(ccs))
	var wg sync.WaitGroup
	for _, cc := range ccs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := sameRow(x.CountryShares(cc), scanRow(x.Counts, cc)); err != nil {
				errs <- fmt.Errorf("CountryShares(%s): %w", cc, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
