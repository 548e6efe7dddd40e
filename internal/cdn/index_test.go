package cdn

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/dates"
	"repro/internal/orgs"
	"repro/internal/stats"
)

// scanShares is the per-country accessor as it stood before the
// country index: a scan over every (country, org) pair of the snapshot.
func scanShares(s *Snapshot, country string, f func(OrgStats) float64) map[string]float64 {
	out := map[string]float64{}
	for k, st := range s.Stats {
		if k.Country == country {
			out[k.Org] = f(st)
		}
	}
	return stats.NormalizeMap(out)
}

func uaOf(st OrgStats) float64  { return st.UserAgents }
func volOf(st OrgStats) float64 { return st.Bytes }

// sameShares reports the first difference between two share maps,
// comparing values bit for bit.
func sameShares(got, want map[string]float64) error {
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

// indexCountries is every country of the world plus the Tor pseudo
// country and a code no snapshot carries.
func indexCountries() []string {
	return append(testW.Countries(), TorCountry, "ZZ")
}

// TestCountryIndexMatchesScan checks UAShares and VolumeShares against
// the full-map scan for every country, on a generated snapshot and on one
// rebuilt from its frame.
func TestCountryIndexMatchesScan(t *testing.T) {
	d := dates.New(2023, 7, 20)
	generated := testGen().Generate(d)
	rebuilt, err := SnapshotFromFrame(testGen().Generate(d).Frame())
	if err != nil {
		t.Fatal(err)
	}
	// The comparison must cover the pseudo country and the VPN org's
	// origin-country pairs, which have no market entry.
	vpnOrigins := 0
	for _, cc := range vpnOriginCountries(d) {
		if _, ok := generated.Stats[orgs.CountryOrg{Country: cc, Org: testW.VPNOrgID}]; ok {
			vpnOrigins++
		}
	}
	if vpnOrigins == 0 {
		t.Fatal("snapshot has no VPN-origin pairs")
	}
	for name, snap := range map[string]*Snapshot{"generated": generated, "rebuilt": rebuilt} {
		if len(snap.UAShares(TorCountry)) != 1 {
			t.Fatalf("%s: Tor pseudo country missing", name)
		}
		for _, cc := range indexCountries() {
			if err := sameShares(snap.UAShares(cc), scanShares(snap, cc, uaOf)); err != nil {
				t.Fatalf("%s UAShares(%s): %v", name, cc, err)
			}
			if err := sameShares(snap.VolumeShares(cc), scanShares(snap, cc, volOf)); err != nil {
				t.Fatalf("%s VolumeShares(%s): %v", name, cc, err)
			}
		}
	}
}

// TestCountryIndexCallerOwnsResult mutates returned maps and checks the
// next call is unaffected.
func TestCountryIndexCallerOwnsResult(t *testing.T) {
	snap := testGen().Generate(dates.New(2023, 7, 20))
	for _, get := range []func(string) map[string]float64{snap.UAShares, snap.VolumeShares} {
		first := get("DE")
		for id := range first {
			first[id] = -1
		}
		first["junk"] = 1
	}
	if err := sameShares(snap.UAShares("DE"), scanShares(snap, "DE", uaOf)); err != nil {
		t.Fatalf("UAShares after mutation: %v", err)
	}
	if err := sameShares(snap.VolumeShares("DE"), scanShares(snap, "DE", volOf)); err != nil {
		t.Fatalf("VolumeShares after mutation: %v", err)
	}
}

// TestCountryIndexConcurrentFirstUse makes the first per-country calls on
// a fresh snapshot from 8 goroutines at once (run under -race).
func TestCountryIndexConcurrentFirstUse(t *testing.T) {
	snap := testGen().Generate(dates.New(2023, 7, 20))
	ccs := []string{"DE", "FR", "IN", "NO", "US", TorCountry, "BR", "MM"}
	start := make(chan struct{})
	errs := make(chan error, len(ccs))
	var wg sync.WaitGroup
	for _, cc := range ccs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := sameShares(snap.UAShares(cc), scanShares(snap, cc, uaOf)); err != nil {
				errs <- fmt.Errorf("UAShares(%s): %w", cc, err)
			}
			if err := sameShares(snap.VolumeShares(cc), scanShares(snap, cc, volOf)); err != nil {
				errs <- fmt.Errorf("VolumeShares(%s): %w", cc, err)
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
