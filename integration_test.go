package repro_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/apnic"
	"repro/internal/cdnlog"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/orgs"
)

// TestEndToEndPipeline exercises the full stack in one flow: world →
// APNIC CSV round trip → CDN raw-log round trip → agreement analysis →
// artifact checks → §1 weighting comparison, all on the shared benchmark lab.
func TestEndToEndPipeline(t *testing.T) {
	l := lab()
	day := experiments.PrimaryCDNDay

	// APNIC: generate → CSV → parse → aggregate.
	rep := l.Report(day)
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := apnic.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	apnicUsers := parsed.OrgUsers(l.W.Registry)
	if len(apnicUsers) < 500 {
		t.Fatalf("only %d (country, org) pairs after CSV round trip", len(apnicUsers))
	}

	// CDN: raw logs → pipe → aggregation, consistent with attribution.
	sampler := cdnlog.NewSampler(l.W, l.Seed)
	var logBuf bytes.Buffer
	written, err := sampler.WriteDay(&logBuf, "DE", day, 100)
	if err != nil || written == 0 {
		t.Fatalf("log sampling failed: %d records, %v", written, err)
	}
	agg := cdnlog.NewAggregator(l.W.RoutingDB(), l.W.Registry, 50)
	if _, err := agg.ReadFrom(&logBuf); err != nil {
		t.Fatal(err)
	}
	for k := range agg.Stats() {
		if k.Country != "DE" {
			t.Fatalf("log record attributed outside DE: %v", k)
		}
	}

	// Agreement between the two pipelines for Germany.
	snap := l.Snapshot(day)
	res := core.CompareShares(orgs.CountryShares(apnicUsers, "DE"), snap.UAShares("DE"))
	if res.Level < core.PrincipalOrgAgreement {
		t.Fatalf("Germany agreement only %v", res.Level)
	}

	// Reliability verdicts for a clean and a distorted country.
	if v := experiments.RunCountryChecks(l, "DE", day).Verdict; v != core.Reliable {
		t.Errorf("Germany verdict %v", v)
	}
	if v := experiments.RunCountryChecks(l, "TM", day).Verdict; v == core.Reliable {
		t.Error("Turkmenistan should not be Reliable")
	}

	checkWeighting(t, l)
}

// checkWeighting is the paper's §1 argument on one lab: weighting networks
// by APNIC's user estimates lands far closer to the true user
// distribution than the traditions it replaces, counting every network
// (uniform-per-network) or every country (uniform-per-country) equally.
// Closeness is total variation, ½ Σ |w − truth| over the (country, org)
// pairs with true users on the Table 2 day.
func checkWeighting(t *testing.T, l *experiments.Lab) {
	t.Helper()
	d := experiments.Table2Day
	truth := map[orgs.CountryOrg]float64{}
	var truthSum float64
	for _, p := range l.W.CountryOrgPairs(d) {
		if u := l.W.TrueUsers(p.Country, p.Org, d); u > 0 {
			truth[p] = u
			truthSum += u
		}
	}
	pairs := orgs.SortedPairs(truth)
	apnicUsers := l.Report(d).OrgUsers(l.W.Registry)
	var apnicSum float64
	perCountry := map[string]int{}
	for _, p := range pairs {
		apnicSum += max(apnicUsers[p], 0)
		perCountry[p.Country]++
	}
	var tvAPNIC, tvUniform, tvCountry float64
	for _, p := range pairs {
		share := truth[p] / truthSum
		tvAPNIC += math.Abs(max(apnicUsers[p], 0)/apnicSum - share)
		tvUniform += math.Abs(1/float64(len(pairs)) - share)
		tvCountry += math.Abs(1/float64(len(perCountry)*perCountry[p.Country]) - share)
	}
	tvAPNIC, tvUniform, tvCountry = tvAPNIC/2, tvUniform/2, tvCountry/2
	t.Logf("seed %d: total variation APNIC %.3f, uniform-per-network %.3f, uniform-per-country %.3f",
		l.Seed, tvAPNIC, tvUniform, tvCountry)
	if tvAPNIC >= tvUniform/2 {
		t.Errorf("seed %d: APNIC TV %v not clearly better than uniform-per-network %v", l.Seed, tvAPNIC, tvUniform)
	}
	if tvAPNIC >= tvCountry {
		t.Errorf("seed %d: APNIC TV %v not better than uniform-per-country %v", l.Seed, tvAPNIC, tvCountry)
	}
	if tvAPNIC > 0.35 {
		t.Errorf("seed %d: APNIC TV %v too far from the truth", l.Seed, tvAPNIC)
	}
}

// TestShapeInvariantsAcrossSeeds rebuilds the whole ecosystem under two
// fresh seeds and asserts the qualitative results the paper's story rests
// on. Shapes must hold for any world, not just the default seed.
func TestShapeInvariantsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed rebuild is slow")
	}
	for _, seed := range []uint64{101, 202} {
		seed := seed
		l := experiments.NewLab(seed)

		// Figure 3's invariant: modest pair overlap, near-total weight.
		f3 := experiments.Figure3(l)
		if v := f3.Metrics["users_cov_pct"]; v < 90 {
			t.Errorf("seed %d: user coverage %v", seed, v)
		}
		if v := f3.Metrics["pair_overlap_pct"]; v < 20 || v > 80 {
			t.Errorf("seed %d: pair overlap %v", seed, v)
		}

		// Figure 4's invariant: UA agreement beats volume agreement.
		f4 := experiments.Figure4(l)
		if f4.Metrics["ua_rank_pct"] <= f4.Metrics["vol_rank_pct"] {
			t.Errorf("seed %d: UA rank %v not above volume rank %v",
				seed, f4.Metrics["ua_rank_pct"], f4.Metrics["vol_rank_pct"])
		}

		// Figure 6's invariant: elasticity below ~1 with Russia above CI.
		f6 := experiments.Figure6(l)
		if v := f6.Metrics["beta"]; v < 0.6 || v > 1.1 {
			t.Errorf("seed %d: beta %v", seed, v)
		}
		if f6.Metrics["paper_outliers"] < 3 {
			t.Errorf("seed %d: only %v paper outliers recovered", seed, f6.Metrics["paper_outliers"])
		}

		// §1's invariant: weighting by APNIC users beats equal weights.
		checkWeighting(t, l)
	}
}
