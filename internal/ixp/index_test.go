package ixp

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/dates"
	"repro/internal/orgs"
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
	return out
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

// TestCountryIndexMatchesScan checks CountryCapacities against the full-map scan
// for every country (plus the CDN's Tor pseudo country and an unknown
// code), on a generated Snapshot and on one rebuilt from its frame.
func TestCountryIndexMatchesScan(t *testing.T) {
	d := dates.New(2023, 7, 20)
	generated := New(testW, 6).Generate(d)
	rebuilt, err := SnapshotFromFrame(New(testW, 6).Generate(d).Frame())
	if err != nil {
		t.Fatal(err)
	}
	for name, x := range map[string]*Snapshot{"generated": generated, "rebuilt": rebuilt} {
		if len(x.Capacities) == 0 {
			t.Fatalf("%s: empty Snapshot", name)
		}
		for _, cc := range append(testW.Countries(), "T1", "ZZ") {
			if err := sameRow(x.CountryCapacities(cc), scanRow(x.Capacities, cc)); err != nil {
				t.Fatalf("%s CountryCapacities(%s): %v", name, cc, err)
			}
		}
	}
}

// TestCountryIndexCallerOwnsResult mutates a returned map and checks the
// next call is unaffected.
func TestCountryIndexCallerOwnsResult(t *testing.T) {
	d := dates.New(2023, 7, 20)
	x := New(testW, 6).Generate(d)
	first := x.CountryCapacities("DE")
	if len(first) == 0 {
		t.Fatal("no orgs for DE")
	}
	for id := range first {
		first[id] = -1
	}
	first["junk"] = 1
	if err := sameRow(x.CountryCapacities("DE"), scanRow(x.Capacities, "DE")); err != nil {
		t.Fatalf("CountryCapacities after mutation: %v", err)
	}
}

// TestCountryIndexConcurrentFirstUse makes the first per-country calls on
// a fresh Snapshot from 8 goroutines at once (run under -race).
func TestCountryIndexConcurrentFirstUse(t *testing.T) {
	d := dates.New(2023, 7, 20)
	x := New(testW, 6).Generate(d)
	ccs := []string{"DE", "FR", "IN", "NO", "US", "BR", "MM", "JP"}
	start := make(chan struct{})
	errs := make(chan error, len(ccs))
	var wg sync.WaitGroup
	for _, cc := range ccs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := sameRow(x.CountryCapacities(cc), scanRow(x.Capacities, cc)); err != nil {
				errs <- fmt.Errorf("CountryCapacities(%s): %w", cc, err)
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
