package fleet

import (
	"encoding/json"
	"fmt"
	"strings"
)

// CheckStat is one reliability check's pass rate aggregated over every
// (seed, country) cell of a scenario.
type CheckStat struct {
	Name   string `json:"name"`
	Passed int    `json:"passed"`
	Total  int    `json:"total"`
}

// Rate returns the pass fraction.
func (s CheckStat) Rate() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Passed) / float64(s.Total)
}

// FlipStat counts how often a check's outcome differs from the same-seed
// paper world — the sweep's measure of a scenario's reliability impact.
type FlipStat struct {
	Check      string   `json:"check"`
	PassToFail int      `json:"pass_to_fail"`
	FailToPass int      `json:"fail_to_pass"`
	Examples   []string `json:"examples,omitempty"` // "seed42/BR", capped
}

// ScenarioSummary aggregates one scenario across all seeds.
type ScenarioSummary struct {
	Scenario string         `json:"scenario"`
	Worlds   int            `json:"worlds"`
	Verdicts map[string]int `json:"verdicts"` // verdict → country-world count
	Checks   []CheckStat    `json:"checks"`
	Flips    []FlipStat     `json:"flips,omitempty"` // empty for paper
}

// Report is the sweep's deterministic output: no timestamps, no wall
// times, every slice in sorted order — two runs of the same Config must
// produce identical bytes from Markdown() and JSON().
type Report struct {
	Day       string            `json:"day"`
	SeedBase  uint64            `json:"seed_base"`
	Seeds     int               `json:"seeds"`
	Scenarios []ScenarioSummary `json:"scenarios"`
}

// JSON renders the report as indented JSON (trailing newline included).
func (r *Report) JSON() ([]byte, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// Markdown renders the stability report.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Fleet stability report\n\n")
	fmt.Fprintf(&b, "Check day %s, seeds %d..%d (%d per scenario).\n\n",
		r.Day, r.SeedBase, r.SeedBase+uint64(r.Seeds)-1, r.Seeds)

	for _, s := range r.Scenarios {
		fmt.Fprintf(&b, "## Scenario `%s`\n\n", s.Scenario)
		fmt.Fprintf(&b, "%d worlds.\n\n", s.Worlds)

		fmt.Fprintf(&b, "| check | pass | total | rate |\n")
		fmt.Fprintf(&b, "|---|---:|---:|---:|\n")
		for _, c := range s.Checks {
			fmt.Fprintf(&b, "| %s | %d | %d | %.3f |\n", c.Name, c.Passed, c.Total, c.Rate())
		}
		b.WriteString("\n")

		fmt.Fprintf(&b, "Verdicts:")
		for _, v := range sortedKeys(s.Verdicts) {
			fmt.Fprintf(&b, " %s=%d", v, s.Verdicts[v])
		}
		b.WriteString("\n\n")

		if len(s.Flips) > 0 {
			fmt.Fprintf(&b, "Flips vs same-seed paper worlds:\n\n")
			fmt.Fprintf(&b, "| check | pass→fail | fail→pass | examples |\n")
			fmt.Fprintf(&b, "|---|---:|---:|---|\n")
			for _, f := range s.Flips {
				fmt.Fprintf(&b, "| %s | %d | %d | %s |\n",
					f.Check, f.PassToFail, f.FailToPass, strings.Join(f.Examples, ", "))
			}
			b.WriteString("\n")
		} else if s.Scenario != "paper" {
			fmt.Fprintf(&b, "No check flips vs the paper baseline.\n\n")
		}
	}
	return b.String()
}
