package apnic

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/dates"
	"repro/internal/itu"
	"repro/internal/orgs"
	"repro/internal/source"
	"repro/internal/world"
)

var (
	testW   = world.MustBuild(world.Config{Seed: 11})
	testITU = itu.New(testW, 11)
)

func testGen() *Generator { return New(testW, testITU, 11) }

func TestGenerateDeterministic(t *testing.T) {
	d := dates.New(2024, 4, 21)
	r1 := testGen().Generate(d)
	r2 := testGen().Generate(d)
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatal("row counts differ")
	}
	for i := range r1.Rows {
		if r1.Rows[i] != r2.Rows[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, r1.Rows[i], r2.Rows[i])
		}
	}
}

func TestGenerateOrderIndependence(t *testing.T) {
	// Generating another day first must not change a report.
	g := testGen()
	_ = g.Generate(dates.New(2024, 1, 1))
	r1 := g.Generate(dates.New(2024, 4, 21))
	r2 := testGen().Generate(dates.New(2024, 4, 21))
	if len(r1.Rows) != len(r2.Rows) || r1.Rows[0] != r2.Rows[0] {
		t.Fatal("report depends on generation order")
	}
}

func TestReportStructure(t *testing.T) {
	rep := testGen().Generate(dates.New(2024, 4, 21))
	if len(rep.Rows) < 500 {
		t.Fatalf("only %d rows", len(rep.Rows))
	}
	prev := math.Inf(1)
	for i, row := range rep.Rows {
		if row.Rank != i+1 {
			t.Fatalf("rank %d at index %d", row.Rank, i)
		}
		if row.Users > prev {
			t.Fatal("rows not sorted by users")
		}
		prev = row.Users
		if row.Samples < DefaultMinSamples {
			t.Fatalf("row with %d samples below the floor", row.Samples)
		}
		if row.PctCountry <= 0 || row.PctCountry > 100+1e-9 {
			t.Fatalf("bad %% of country %v", row.PctCountry)
		}
		if row.CC == "" || row.ASName == "" {
			t.Fatal("missing CC or AS name")
		}
	}
}

func TestCountryPercentagesSum(t *testing.T) {
	rep := testGen().Generate(dates.New(2024, 4, 21))
	sums := map[string]float64{}
	for _, row := range rep.Rows {
		sums[row.CC] += row.PctCountry
	}
	for cc, s := range sums {
		if s > 100.0001 {
			t.Errorf("%s country percentages sum to %v", cc, s)
		}
	}
	// Large, well-sampled countries should be nearly fully covered.
	if sums["FR"] < 95 {
		t.Errorf("France coverage %v%%, want ~100", sums["FR"])
	}
}

func TestEstimatesTrackTruthInHighReachCountries(t *testing.T) {
	d := dates.New(2024, 4, 21)
	rep := testGen().Generate(d)
	users := rep.OrgUsers(testW.Registry)
	// The largest French org's estimate should be within a factor ~1.6
	// of ground truth (France has high ad reach).
	top := testGen().W.Market("FR").ActiveEntries(d)[0]
	truth := testW.TrueUsers("FR", top.Org.ID, d)
	est := users[orgs.CountryOrg{Country: "FR", Org: top.Org.ID}]
	if est <= 0 {
		t.Fatal("top French org missing from APNIC")
	}
	ratio := est / truth
	if ratio < 0.6 || ratio > 1.6 {
		t.Errorf("FR top org estimate/truth = %v", ratio)
	}
}

func TestLowReachCountriesUnderSampled(t *testing.T) {
	d := dates.New(2024, 4, 21)
	rep := testGen().Generate(d)
	samples := rep.CountrySamples()
	users := rep.CountryUsers()
	// Users-per-sample must be far higher in Turkmenistan than France.
	ratio := func(cc string) float64 {
		if samples[cc] == 0 {
			return math.Inf(1)
		}
		return users[cc] / float64(samples[cc])
	}
	if ratio("TM") < 5*ratio("FR") {
		t.Errorf("TM users/sample %v not ≫ FR %v", ratio("TM"), ratio("FR"))
	}
}

func TestMinSamplesDropsTinyOrgs(t *testing.T) {
	d := dates.New(2024, 4, 21)
	rep := testGen().Generate(d)
	users := rep.OrgUsers(testW.Registry)
	// APNIC must see far fewer (country, org) pairs than exist.
	pairs := testW.CountryOrgPairs(d)
	if len(users) >= len(pairs) {
		t.Fatalf("APNIC sees %d pairs of %d; the floor should drop the tail", len(users), len(pairs))
	}
	if float64(len(users)) > 0.8*float64(len(pairs)) {
		t.Errorf("APNIC sees %d of %d pairs; want a substantial miss rate", len(users), len(pairs))
	}
}

func TestRussiaAdsPauseShrinksSamples(t *testing.T) {
	g := testGen()
	before := g.Generate(dates.New(2022, 2, 1)).CountrySamples()["RU"]
	after := g.Generate(dates.New(2022, 5, 1)).CountrySamples()["RU"]
	if before == 0 {
		t.Fatal("no Russian samples before the pause")
	}
	if float64(after) > 0.6*float64(before) {
		t.Errorf("RU samples %d → %d; pause should cut them sharply", before, after)
	}
}

func TestShutdownSuppression(t *testing.T) {
	// Myanmar's weekly shutdowns create much larger relative sample
	// swings than a stable country's.
	g := testGen()
	rel := func(cc string) float64 {
		var min, max float64 = math.Inf(1), 0
		for wk := 0; wk < 12; wk++ {
			d := dates.New(2024, 1, 2).AddDays(7 * wk)
			s := float64(g.Generate(d).CountrySamples()[cc])
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		if max == 0 {
			return 0
		}
		return (max - min) / max
	}
	if rel("MM") < rel("DE") {
		t.Errorf("MM swing %v not above DE swing %v", rel("MM"), rel("DE"))
	}
}

func TestVPNInflatesNorway(t *testing.T) {
	d := dates.New(2024, 4, 21)
	rep := testGen().Generate(d)
	users := rep.OrgUsers(testW.Registry)
	vpn := users[orgs.CountryOrg{Country: "NO", Org: testW.VPNOrgID}]
	truth := testW.TrueUsers("NO", testW.VPNOrgID, d)
	if vpn < 5*truth {
		t.Errorf("VPN org APNIC estimate %v not ≫ true local users %v", vpn, truth)
	}
}

func TestTopOrgs(t *testing.T) {
	rep := testGen().Generate(dates.New(2024, 4, 21))
	top := rep.TopOrgs(testW.Registry, "FR")
	if len(top) < 3 {
		t.Fatalf("only %d French orgs", len(top))
	}
	users := orgs.CountryShares(rep.OrgUsers(testW.Registry), "FR")
	for i := 1; i < len(top); i++ {
		if users[top[i]] > users[top[i-1]] {
			t.Fatal("TopOrgs not descending")
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	rep := testGen().Generate(dates.New(2024, 4, 21))
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Date != rep.Date || got.Window != rep.Window {
		t.Fatalf("metadata mismatch: %v/%d", got.Date, got.Window)
	}
	if len(got.Rows) != len(rep.Rows) {
		t.Fatalf("row count %d vs %d", len(got.Rows), len(rep.Rows))
	}
	for i := range got.Rows {
		a, b := got.Rows[i], rep.Rows[i]
		if a.Rank != b.Rank || a.ASN != b.ASN || a.CC != b.CC || a.Samples != b.Samples {
			t.Fatalf("row %d mismatch: %+v vs %+v", i, a, b)
		}
		if math.Abs(a.Users-b.Users) > 0.01 {
			t.Fatalf("row %d users %v vs %v", i, a.Users, b.Users)
		}
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("not,a,report\n")); err == nil {
		t.Error("garbage CSV should fail")
	}
	if _, err := ReadCSV(bytes.NewBufferString("")); err == nil {
		t.Error("empty CSV should fail")
	}
}

func TestReportFromFrameRejectsIncomplete(t *testing.T) {
	d := dates.New(2024, 4, 21)
	for _, tc := range []struct {
		name   string
		mutate func(f *source.Frame)
	}{
		{"no window-days", func(f *source.Frame) { f.Meta = nil }},
		{"bad window-days", func(f *source.Frame) { f.Meta = [][2]string{{"window-days", "sixty"}} }},
		{"missing column", func(f *source.Frame) { f.Cols = f.Cols[:len(f.Cols)-1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := testGen().Generate(d).Frame()
			tc.mutate(f)
			if _, err := ReportFromFrame(f); err == nil {
				t.Fatal("incomplete frame decoded without error")
			}
		})
	}
}

func TestSamplesCorrelateWithUsersAcrossCountries(t *testing.T) {
	// The defining log-log relationship of §5.1.1: more users, more
	// samples, elasticity near (slightly below) one.
	rep := testGen().Generate(dates.New(2024, 8, 9))
	users := rep.CountryUsers()
	samples := rep.CountrySamples()
	n := 0
	for cc := range users {
		if samples[cc] > 0 {
			n++
		}
	}
	if n < 50 {
		t.Fatalf("only %d countries with data", n)
	}
}

func TestCountryTotalsMatchesReport(t *testing.T) {
	// The cheap per-country scan must agree with the full world report.
	g := testGen()
	d := dates.New(2024, 4, 21)
	rep := g.Generate(d)
	wantSamples := rep.CountrySamples()
	for _, cc := range []string{"FR", "IN", "RU", "VU"} {
		gotS, gotU := g.CountryTotals(cc, d)
		if gotS != wantSamples[cc] {
			t.Errorf("%s samples: CountryTotals=%d report=%d", cc, gotS, wantSamples[cc])
		}
		if gotS > 0 && gotU <= 0 {
			t.Errorf("%s: samples without ITU users", cc)
		}
	}
}

func TestCountryOrgSharesMatchesReport(t *testing.T) {
	g := testGen()
	d := dates.New(2024, 4, 21)
	rep := g.Generate(d)
	users := orgs.CountryShares(rep.OrgUsers(testW.Registry), "FR")
	total := 0.0
	for _, v := range users {
		total += v
	}
	fast := g.CountryOrgShares("FR", d)
	if len(fast) != len(users) {
		t.Fatalf("org sets differ: fast=%d report=%d", len(fast), len(users))
	}
	for id, v := range users {
		if math.Abs(fast[id]-v/total) > 1e-9 {
			t.Errorf("share mismatch for %s: fast=%v report=%v", id, fast[id], v/total)
		}
	}
}

// TestCountryOrgUsersMatchesScan checks the report's country index
// against the one-country scan of the full aggregation for every
// country, and that returned maps are caller-owned.
func TestCountryOrgUsersMatchesScan(t *testing.T) {
	rep := testGen().Generate(dates.New(2023, 7, 20))
	all := rep.OrgUsers(testW.Registry)
	for _, cc := range append(testW.Countries(), "T1", "ZZ") {
		got, want := rep.CountryOrgUsers(testW.Registry, cc), orgs.CountryShares(all, cc)
		if got == nil || len(got) != len(want) {
			t.Fatalf("CountryOrgUsers(%s): %d orgs, scan %d", cc, len(got), len(want))
		}
		for id, v := range want {
			if math.Float64bits(got[id]) != math.Float64bits(v) {
				t.Fatalf("CountryOrgUsers(%s)[%s] = %v, scan %v", cc, id, got[id], v)
			}
		}
		for id := range got {
			got[id] = -1
		}
	}
	if fr := rep.CountryOrgUsers(testW.Registry, "FR"); fr[rep.TopOrgs(testW.Registry, "FR")[0]] <= 0 {
		t.Fatal("mutating a returned map reached the index")
	}
}
