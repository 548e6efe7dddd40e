package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/dates"
)

// The wire format is deliberately separate from the in-memory types:
// dates travel as "YYYY-MM-DD" strings, unknown fields are rejected, and
// every decoded scenario passes the same Validate() a struct literal
// would — a config file cannot reach a state a literal could not.

type wireScenario struct {
	Name      string         `json:"name"`
	Notes     string         `json:"notes,omitempty"`
	AdExits   []wireAdExit   `json:"ad_exits,omitempty"`
	Spikes    []wireSpike    `json:"registry_spikes,omitempty"`
	Shutdowns []wireShutdown `json:"shutdown_regimes,omitempty"`
	CGNAT     []wireCGNAT    `json:"cgnat_rollouts,omitempty"`
	VPNSurges []wireVPNSurge `json:"vpn_surges,omitempty"`
	Mergers   []wireMerger   `json:"mergers,omitempty"`
	Entrants  []wireEntrant  `json:"entrants,omitempty"`
}

type wireAdExit struct {
	Country string  `json:"country"`
	From    string  `json:"from"`
	Factor  float64 `json:"factor"`
}

type wireSpike struct {
	Country string  `json:"country"`
	Week    string  `json:"week"`
	Factor  float64 `json:"factor"`
}

type wireShutdown struct {
	Country string  `json:"country"`
	From    string  `json:"from"`
	To      string  `json:"to,omitempty"`
	Rate    float64 `json:"rate"`
}

type wireCGNAT struct {
	Country string  `json:"country"`
	From    string  `json:"from"`
	Factor  float64 `json:"factor"`
}

type wireVPNSurge struct {
	From   string  `json:"from"`
	Factor float64 `json:"factor"`
}

type wireMerger struct {
	Country     string  `json:"country"`
	Year        int     `json:"year"`
	Probability float64 `json:"probability"`
}

type wireEntrant struct {
	Name        string   `json:"name"`
	Home        string   `json:"home"`
	Countries   []string `json:"countries,omitempty"`
	EntryYear   int      `json:"entry_year"`
	Weight      float64  `json:"weight"`
	MobileShare float64  `json:"mobile_share"`
}

// Decode reads one scenario from JSON with strict validation: unknown
// fields, malformed dates, out-of-bounds factors and unknown countries
// are all errors, and trailing data after the document is rejected.
func Decode(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var w wireScenario
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("scenario: decode: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("scenario: trailing data after document")
	}
	s, err := w.toScenario()
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadFile reads and validates a scenario from a JSON file.
func LoadFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}

func (w *wireScenario) toScenario() (*Scenario, error) {
	parse := func(field, v string) (dates.Date, error) {
		d, err := dates.Parse(v)
		if err != nil {
			return dates.Date{}, fmt.Errorf("scenario %s: %s: %w", w.Name, field, err)
		}
		return d, nil
	}
	s := &Scenario{Name: w.Name, Notes: w.Notes}
	for _, e := range w.AdExits {
		from, err := parse("ad_exits.from", e.From)
		if err != nil {
			return nil, err
		}
		s.AdExits = append(s.AdExits, AdMarketExit{Country: e.Country, From: from, Factor: e.Factor})
	}
	for _, e := range w.Spikes {
		week, err := parse("registry_spikes.week", e.Week)
		if err != nil {
			return nil, err
		}
		s.Spikes = append(s.Spikes, RegistrySpike{Country: e.Country, Week: week, Factor: e.Factor})
	}
	for _, e := range w.Shutdowns {
		from, err := parse("shutdown_regimes.from", e.From)
		if err != nil {
			return nil, err
		}
		var to dates.Date
		if e.To != "" {
			to, err = parse("shutdown_regimes.to", e.To)
			if err != nil {
				return nil, err
			}
		}
		s.Shutdowns = append(s.Shutdowns, ShutdownRegime{Country: e.Country, From: from, To: to, Rate: e.Rate})
	}
	for _, e := range w.CGNAT {
		from, err := parse("cgnat_rollouts.from", e.From)
		if err != nil {
			return nil, err
		}
		s.CGNAT = append(s.CGNAT, CGNATRollout{Country: e.Country, From: from, Factor: e.Factor})
	}
	for _, e := range w.VPNSurges {
		from, err := parse("vpn_surges.from", e.From)
		if err != nil {
			return nil, err
		}
		s.VPNSurges = append(s.VPNSurges, VPNSurge{From: from, Factor: e.Factor})
	}
	for _, e := range w.Mergers {
		s.Mergers = append(s.Mergers, MergerOverride{Country: e.Country, Year: e.Year, Probability: e.Probability})
	}
	for _, e := range w.Entrants {
		s.Entrants = append(s.Entrants, Entrant{
			Name:        e.Name,
			Home:        e.Home,
			Countries:   e.Countries,
			EntryYear:   e.EntryYear,
			Weight:      e.Weight,
			MobileShare: e.MobileShare,
		})
	}
	return s, nil
}
