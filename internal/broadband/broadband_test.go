package broadband

import (
	"math"
	"testing"

	"repro/internal/dates"
	"repro/internal/world"
)

var testW = world.MustBuild(world.Config{Seed: 11})

func TestGenerateCoverage(t *testing.T) {
	ds := New(testW, 3).Generate(dates.New(2024, 3, 1))
	if len(ds.Shares) != len(SurveyCountries) {
		t.Fatalf("survey covers %d countries, want %d", len(ds.Shares), len(SurveyCountries))
	}
	for _, cc := range SurveyCountries {
		if len(ds.Shares[cc]) < 2 {
			t.Errorf("%s has %d surveyed orgs", cc, len(ds.Shares[cc]))
		}
	}
}

func TestSharesNormalized(t *testing.T) {
	ds := New(testW, 3).Generate(dates.New(2024, 3, 1))
	for cc, row := range ds.Shares {
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s shares sum to %v", cc, sum)
		}
	}
}

func TestAccessNetworksOnly(t *testing.T) {
	ds := New(testW, 3).Generate(dates.New(2024, 3, 1))
	for cc, row := range ds.Shares {
		for id := range row {
			o, ok := testW.Registry.ByID(id)
			if !ok {
				t.Fatalf("unknown org %s in %s", id, cc)
			}
			if !o.Type.IsAccess() {
				t.Errorf("%s: non-access org %s (%v) surveyed", cc, id, o.Type)
			}
		}
	}
}

func TestDeterministic(t *testing.T) {
	d := dates.New(2024, 3, 1)
	a := New(testW, 3).Generate(d)
	b := New(testW, 3).Generate(d)
	for cc, row := range a.Shares {
		for id, v := range row {
			if b.Shares[cc][id] != v {
				t.Fatalf("nondeterministic share for %s/%s", cc, id)
			}
		}
	}
}

func TestTracksFixedLineTruth(t *testing.T) {
	// Survey shares must correlate with the true fixed-user shares, not
	// total users — a converged carrier's mobile side is invisible.
	ds := New(testW, 3).Generate(dates.New(2024, 3, 1))
	d := dates.New(2024, 3, 1)
	for _, cc := range []string{"FR", "DE", "US"} {
		row := ds.Shares[cc]
		// True fixed-line shares over the surveyed orgs.
		truth := map[string]float64{}
		total := 0.0
		for id := range row {
			e := testW.Entry(cc, id)
			v := testW.TrueUsers(cc, id, d) * (1 - e.MobileShare)
			truth[id] = v
			total += v
		}
		for id := range truth {
			truth[id] /= total
		}
		// Largest surveyed org should match the largest true fixed org.
		argmax := func(m map[string]float64) string {
			best, bid := -1.0, ""
			for k, v := range m {
				if v > best {
					best, bid = v, k
				}
			}
			return bid
		}
		if argmax(row) != argmax(truth) {
			t.Errorf("%s: surveyed leader %s != true fixed leader %s", cc, argmax(row), argmax(truth))
		}
	}
}

func TestCountriesSorted(t *testing.T) {
	ds := New(testW, 3).Generate(dates.New(2024, 3, 1))
	cs := ds.Countries()
	for i := 1; i < len(cs); i++ {
		if cs[i] < cs[i-1] {
			t.Fatal("Countries not sorted")
		}
	}
}

func TestDatasetFromFrameMissingColumns(t *testing.T) {
	f := New(testW, 3).Generate(dates.New(2024, 3, 1)).Frame()
	f.Cols = f.Cols[:len(f.Cols)-1]
	if _, err := DatasetFromFrame(f); err == nil {
		t.Fatal("frame without a Share column decoded without error")
	}
}
