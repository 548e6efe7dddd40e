package scenario

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/dates"
)

func TestPaperValidatesAndCompiles(t *testing.T) {
	p := Paper()
	if err := p.Validate(); err != nil {
		t.Fatalf("Paper() must validate: %v", err)
	}
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.scn.Name != "paper" {
		t.Fatalf("name = %q", c.scn.Name)
	}

	// Russia's ads pause: one sampling step of exactly 0.25 from
	// 2022-03-10 — the constant the apnic package used to hard-code.
	ru := c.Country("RU")
	if ru == nil || !ru.HasSampling() {
		t.Fatal("paper scenario must shock RU sampling")
	}
	pause := dates.New(2022, 3, 10)
	if f := ru.SamplingFactor(pause.AddDays(-1).DayNumber()); f != 1 {
		t.Errorf("RU factor before pause = %v, want 1", f)
	}
	if f := ru.SamplingFactor(pause.DayNumber()); f != 0.25 {
		t.Errorf("RU factor at pause = %v, want exactly 0.25", f)
	}

	// France's registry spike: guaranteed in the week of 2019-05-13 only.
	fr := c.Country("FR")
	if fr == nil {
		t.Fatal("paper scenario must shock FR")
	}
	wk := dates.WeekIndex(dates.New(2019, 5, 13))
	if f, ok := fr.RegistrySpike(wk); !ok || f != 1.10 {
		t.Errorf("FR spike week = (%v, %v), want (1.10, true)", f, ok)
	}
	if _, ok := fr.RegistrySpike(wk + 1); ok {
		t.Error("FR must not spike the following week")
	}

	// CH and DE merger overrides with probability 1.
	m := c.Mergers()
	if m["CH"].Year != 2020 || m["CH"].Probability != 1 {
		t.Errorf("CH override = %+v", m["CH"])
	}
	if m["DE"].Year != 2019 || m["DE"].Probability != 1 {
		t.Errorf("DE override = %+v", m["DE"])
	}

	// No shutdown regimes, surges or entrants: Myanmar's baseline rate
	// lives in the geo registry, not here.
	if len(p.Shutdowns) != 0 || len(p.VPNSurges) != 0 || len(p.Entrants) != 0 {
		t.Error("paper scenario must not carry counterfactual events")
	}
	if f := c.VPNFactor(dates.New(2024, 1, 1)); f != 1 {
		t.Errorf("paper VPN factor = %v, want 1", f)
	}
}

func TestBuiltinsValidate(t *testing.T) {
	names := map[string]bool{}
	for _, s := range Builtins() {
		if err := s.Validate(); err != nil {
			t.Errorf("builtin %s: %v", s.Name, err)
		}
		if names[s.Name] {
			t.Errorf("duplicate builtin name %s", s.Name)
		}
		names[s.Name] = true
	}
	if Builtins()[0].Name != "paper" {
		t.Error("paper must be first in the roster")
	}
	if _, ok := ByName("cgnat-wave"); !ok {
		t.Error("ByName must find cgnat-wave")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName must miss unknown names")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		s    Scenario
		want string
	}{
		{"missing name", Scenario{}, "missing name"},
		{"unknown country", Scenario{Name: "x",
			AdExits: []AdMarketExit{{Country: "XX", From: dates.New(2022, 1, 1), Factor: 0.5}}}, "unknown country"},
		{"ad factor zero", Scenario{Name: "x",
			AdExits: []AdMarketExit{{Country: "RU", From: dates.New(2022, 1, 1), Factor: 0}}}, "out of (0,1]"},
		{"ad factor above one", Scenario{Name: "x",
			AdExits: []AdMarketExit{{Country: "RU", From: dates.New(2022, 1, 1), Factor: 1.5}}}, "out of (0,1]"},
		{"invalid date", Scenario{Name: "x",
			AdExits: []AdMarketExit{{Country: "RU", From: dates.Date{Year: 2022, Month: 13, Day: 1}, Factor: 0.5}}}, "invalid date"},
		{"spike factor low", Scenario{Name: "x",
			Spikes: []RegistrySpike{{Country: "FR", Week: dates.New(2019, 5, 13), Factor: 1.0}}}, "out of (1,2]"},
		{"shutdown rate high", Scenario{Name: "x",
			Shutdowns: []ShutdownRegime{{Country: "MM", From: dates.New(2022, 1, 1), Rate: 1.3}}}, "shutdown rate"},
		{"shutdown range inverted", Scenario{Name: "x",
			Shutdowns: []ShutdownRegime{{Country: "MM", From: dates.New(2022, 6, 1), To: dates.New(2022, 1, 1), Rate: 0.2}}}, "bad range"},
		{"cgnat factor", Scenario{Name: "x",
			CGNAT: []CGNATRollout{{Country: "BR", From: dates.New(2022, 1, 1), Factor: 2}}}, "out of (0,1]"},
		{"vpn surge factor", Scenario{Name: "x",
			VPNSurges: []VPNSurge{{From: dates.New(2022, 1, 1), Factor: 11}}}, "out of (0,10]"},
		{"merger probability", Scenario{Name: "x",
			Mergers: []MergerOverride{{Country: "CH", Year: 2020, Probability: 1.5}}}, "probability"},
		{"merger year", Scenario{Name: "x",
			Mergers: []MergerOverride{{Country: "CH", Year: 1999, Probability: 1}}}, "year"},
		{"duplicate merger", Scenario{Name: "x",
			Mergers: []MergerOverride{
				{Country: "CH", Year: 2020, Probability: 1},
				{Country: "CH", Year: 2021, Probability: 1}}}, "duplicate merger"},
		{"entrant bad name", Scenario{Name: "x",
			Entrants: []Entrant{{Name: "gs", Home: "US", EntryYear: 2021, Weight: 0.1}}}, "entrant name"},
		{"entrant unknown home", Scenario{Name: "x",
			Entrants: []Entrant{{Name: "SAT-ONE", Home: "XX", EntryYear: 2021, Weight: 0.1}}}, "unknown country"},
		{"entrant duplicate country", Scenario{Name: "x",
			Entrants: []Entrant{{Name: "SAT-ONE", Home: "US", Countries: []string{"US"}, EntryYear: 2021, Weight: 0.1}}}, "duplicate country"},
		{"entrant weight", Scenario{Name: "x",
			Entrants: []Entrant{{Name: "SAT-ONE", Home: "US", EntryYear: 2021, Weight: 0}}}, "weight"},
		{"entrant mobile share", Scenario{Name: "x",
			Entrants: []Entrant{{Name: "SAT-ONE", Home: "US", EntryYear: 2021, Weight: 0.1, MobileShare: 1.2}}}, "mobile share"},
	}
	for _, tc := range cases {
		err := tc.s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted an invalid scenario", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestCompileViews(t *testing.T) {
	s := &Scenario{
		Name: "views",
		AdExits: []AdMarketExit{
			{Country: "BR", From: dates.New(2022, 1, 1), Factor: 0.5},
		},
		CGNAT: []CGNATRollout{
			{Country: "BR", From: dates.New(2023, 1, 1), Factor: 0.1},
		},
		Shutdowns: []ShutdownRegime{
			{Country: "MM", From: dates.New(2022, 1, 1), To: dates.New(2022, 12, 31), Rate: 0.5},
			{Country: "IR", From: dates.New(2022, 6, 1), Rate: 0.3}, // open-ended
		},
		VPNSurges: []VPNSurge{
			{From: dates.New(2022, 1, 1), Factor: 2},
			{From: dates.New(2023, 1, 1), Factor: 1.5},
		},
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}

	br := c.Country("BR")
	if f := br.SamplingFactor(dates.New(2021, 12, 31).DayNumber()); f != 1 {
		t.Errorf("BR 2021 factor = %v", f)
	}
	if f := br.SamplingFactor(dates.New(2022, 6, 1).DayNumber()); f != 0.5 {
		t.Errorf("BR 2022 factor = %v, want 0.5", f)
	}
	// Overlapping events compose multiplicatively.
	if f := br.SamplingFactor(dates.New(2023, 6, 1).DayNumber()); math.Abs(f-0.05) > 1e-15 {
		t.Errorf("BR 2023 factor = %v, want 0.05", f)
	}

	mm := c.Country("MM")
	if r := mm.ShutdownRate(dates.New(2021, 6, 1).DayNumber(), 0.1); r != 0.1 {
		t.Errorf("MM outside regime = %v, want baseline 0.1", r)
	}
	if r := mm.ShutdownRate(dates.New(2022, 6, 1).DayNumber(), 0.1); r != 0.5 {
		t.Errorf("MM inside regime = %v, want 0.5", r)
	}
	if r := mm.ShutdownRate(dates.New(2023, 6, 1).DayNumber(), 0.1); r != 0.1 {
		t.Errorf("MM after regime = %v, want baseline again", r)
	}
	ir := c.Country("IR")
	if r := ir.ShutdownRate(dates.New(2030, 1, 1).DayNumber(), 0); r != 0.3 {
		t.Errorf("IR open-ended regime = %v, want 0.3", r)
	}

	if f := c.VPNFactor(dates.New(2021, 1, 1)); f != 1 {
		t.Errorf("VPN 2021 = %v", f)
	}
	if f := c.VPNFactor(dates.New(2022, 6, 1)); f != 2 {
		t.Errorf("VPN 2022 = %v", f)
	}
	if f := c.VPNFactor(dates.New(2023, 6, 1)); f != 3 {
		t.Errorf("VPN 2023 = %v, want 2*1.5", f)
	}

	if c.Country("FR") != nil {
		t.Error("untouched country must compile to nil shocks")
	}
	var got []string
	for cc := range c.byCC {
		got = append(got, cc)
	}
	sort.Strings(got)
	if want := []string{"BR", "IR", "MM"}; !slices.Equal(got, want) {
		t.Fatalf("shocked countries = %v, want %v", got, want)
	}
}

func TestCompileNilIsPaper(t *testing.T) {
	c, err := Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.scn.Name != "paper" {
		t.Errorf("nil scenario compiled to %q, want paper", c.scn.Name)
	}
}

func TestLoaderRoundTrip(t *testing.T) {
	doc := `{
		"name": "loaded",
		"notes": "a test scenario",
		"ad_exits": [{"country": "RU", "from": "2022-03-10", "factor": 0.25}],
		"registry_spikes": [{"country": "FR", "week": "2019-05-13", "factor": 1.1}],
		"shutdown_regimes": [{"country": "MM", "from": "2023-01-01", "to": "2023-06-30", "rate": 0.4}],
		"cgnat_rollouts": [{"country": "BR", "from": "2022-01-01", "factor": 0.05}],
		"vpn_surges": [{"from": "2022-06-01", "factor": 3}],
		"mergers": [{"country": "CH", "year": 2020, "probability": 1}],
		"entrants": [{"name": "GLOBALSAT", "home": "US", "countries": ["AU", "BR"],
			"entry_year": 2021, "weight": 0.02, "mobile_share": 0.3}]
	}`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "loaded" || len(s.AdExits) != 1 || len(s.Entrants) != 1 {
		t.Fatalf("parsed = %+v", s)
	}
	if s.AdExits[0].From != dates.New(2022, 3, 10) {
		t.Errorf("ad exit date = %v", s.AdExits[0].From)
	}
	if s.Shutdowns[0].To != dates.New(2023, 6, 30) {
		t.Errorf("shutdown to = %v", s.Shutdowns[0].To)
	}
	if _, err := Compile(s); err != nil {
		t.Fatalf("loaded scenario must compile: %v", err)
	}
}

func TestLoaderStrictness(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"unknown field", `{"name": "x", "surprise": 1}`},
		{"bad date", `{"name": "x", "ad_exits": [{"country": "RU", "from": "2022/03/10", "factor": 0.5}]}`},
		{"missing date", `{"name": "x", "ad_exits": [{"country": "RU", "factor": 0.5}]}`},
		{"out of bounds", `{"name": "x", "ad_exits": [{"country": "RU", "from": "2022-03-10", "factor": 7}]}`},
		{"unknown country", `{"name": "x", "cgnat_rollouts": [{"country": "ZZ", "from": "2022-01-01", "factor": 0.5}]}`},
		{"trailing data", `{"name": "x"} {"name": "y"}`},
		{"not json", `name: x`},
	}
	for _, tc := range cases {
		if _, err := Parse([]byte(tc.doc)); err == nil {
			t.Errorf("%s: loader accepted invalid document", tc.name)
		}
	}
}
