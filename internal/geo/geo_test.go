package geo

import (
	"sort"
	"testing"
)

func TestRegistryIntegrity(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range All() {
		if err := c.Validate(); err != nil {
			t.Error(err)
		}
		if seen[c.Code] {
			t.Errorf("%s: duplicate country code", c.Code)
		}
		seen[c.Code] = true
	}
	if len(seen) < 100 {
		t.Errorf("registry has %d countries, want >= 100", len(seen))
	}
}

func TestValidateRejectsBadRows(t *testing.T) {
	base, _ := ByCode("FR")
	cases := []struct {
		name   string
		mutate func(*Country)
	}{
		{"bad code", func(c *Country) { c.Code = "FRA" }},
		{"missing name", func(c *Country) { c.Name = "" }},
		{"zero population", func(c *Country) { c.Population = 0 }},
		{"pen2013 high", func(c *Country) { c.Pen2013 = 1.2 }},
		{"pen2024 negative", func(c *Country) { c.Pen2024 = -0.1 }},
		{"freedom high", func(c *Country) { c.Freedom = 101 }},
		{"ad reach high", func(c *Country) { c.AdReach = 1.5 }},
		{"ad volatility negative", func(c *Country) { c.AdVolatility = -0.2 }},
		{"household below 1", func(c *Country) { c.HouseholdSize = 0.5 }},
		{"shutdown rate high", func(c *Country) { c.ShutdownRate = 1.3 }},
	}
	for _, tc := range cases {
		c := base
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid row", tc.name)
		}
	}
}

func TestKeyCountriesPresent(t *testing.T) {
	// Every country the paper names as an outlier or example must exist.
	for _, code := range []string{
		"FR", "RU", "NO", "IN", "MM", "CN", "KR", "JP", "DE", "BR",
		"PL", "AU", "CH", "TM", "ER", "MG", "SD", "VU", "CM", "BJ",
		"CG", "LK", "TH", "KP", "US", "ZA", "SE", "MX", "CA", "FI",
		"AT", "IT", "GB",
	} {
		if _, ok := ByCode(code); !ok {
			t.Errorf("country %s missing from registry", code)
		}
	}
}

func TestOutlierDesign(t *testing.T) {
	// The ad-reach structure drives the paper's Figure 6 outlier set:
	// these countries must have much lower reach than the baseline.
	base, _ := ByCode("FR")
	for _, code := range []string{"RU", "TM", "ER", "MG", "SD", "MM", "VU"} {
		c, _ := ByCode(code)
		if c.AdReach > base.AdReach/2 {
			t.Errorf("%s ad reach %v not clearly below baseline %v", code, c.AdReach, base.AdReach)
		}
	}
	no, _ := ByCode("NO")
	if !no.VPNHub {
		t.Error("Norway must be a VPN hub")
	}
	mm, _ := ByCode("MM")
	if mm.ShutdownRate <= 0 {
		t.Error("Myanmar must have a positive shutdown rate")
	}
	kp, _ := ByCode("KP")
	if kp.AdReach != 0 {
		t.Error("North Korea must have zero ad reach (Google bans ads there)")
	}
}

func TestPenetrationInterpolation(t *testing.T) {
	c, _ := ByCode("IN")
	if got := c.Penetration(2013); got != c.Pen2013 {
		t.Errorf("Penetration(2013) = %v", got)
	}
	if got := c.Penetration(2024); got != c.Pen2024 {
		t.Errorf("Penetration(2024) = %v", got)
	}
	mid := c.Penetration(2019)
	if mid <= c.Pen2013 || mid >= c.Pen2024 {
		t.Errorf("Penetration(2019) = %v not strictly between anchors", mid)
	}
	// Clamped outside the range.
	if c.Penetration(2010) != c.Pen2013 || c.Penetration(2030) != c.Pen2024 {
		t.Error("penetration not clamped outside [2013, 2024]")
	}
}

func TestInternetUsers(t *testing.T) {
	c, _ := ByCode("IN")
	users := c.InternetUsers(2024)
	if users < 5e8 || users > 1e9 {
		t.Errorf("India 2024 Internet users = %v, want hundreds of millions", users)
	}
}

func TestContinentMapping(t *testing.T) {
	cases := map[string]Continent{
		"US": NorthAmerica, "BR": SouthAmerica, "FR": Europe,
		"IN": Asia, "NG": Africa, "AU": Oceania, "FJ": Oceania,
		"MX": NorthAmerica, "RU": Europe, "EG": Africa,
	}
	for code, want := range cases {
		c, ok := ByCode(code)
		if !ok {
			t.Fatalf("missing %s", code)
		}
		if got := c.Continent(); got != want {
			t.Errorf("%s continent = %v, want %v", code, got, want)
		}
	}
}

func TestSubregionCoverage(t *testing.T) {
	// Every Table 6 row must have at least one country so the regional
	// ASN analysis has data everywhere.
	n := map[Subregion]int{}
	for _, c := range All() {
		n[c.Subregion]++
	}
	for _, s := range AllSubregions() {
		if n[s] == 0 {
			t.Errorf("subregion %q has no countries", s)
		}
	}
}

func TestAllSorted(t *testing.T) {
	all := All()
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i].Code < all[j].Code }) {
		t.Error("All() not sorted by code")
	}
}

func TestByCodeMiss(t *testing.T) {
	if _, ok := ByCode("XX"); ok {
		t.Error("ByCode(XX) should miss")
	}
}
