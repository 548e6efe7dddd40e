// Reliability: decide, from public data only, whether the APNIC dataset
// can be trusted for a set of countries — the workflow the paper's §5
// distills into its released artifact. The example contrasts the
// self-consistency signals (sample elasticity, temporal stability) with
// the external M-Lab cross-check, and then picks the best day within a
// 60-day window for one shaky country.
//
//	go run ./examples/reliability
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dates"
	"repro/internal/experiments"
)

func main() {
	lab := experiments.NewLab(1)
	day := dates.New(2024, 8, 9)

	countries := []string{"DE", "BR", "RU", "MM", "TM", "VU", "MG", "IN"}
	fmt.Printf("APNIC reliability on %s:\n\n", day)
	for _, cc := range countries {
		rep := experiments.RunCountryChecks(lab, cc, day)
		fmt.Printf("%-3s %-11s", cc, rep.Verdict)
		for _, c := range rep.Checks {
			mark := "+"
			if !c.Passed {
				mark = "-"
			}
			fmt.Printf("  %s%s", mark, c.Name)
		}
		fmt.Println()
	}

	// For a country with unstable estimates, the §5.1.2 rule: scan the
	// 60 days before the target date and pick the one with the smallest
	// users-per-sample ratio.
	cc := "MG"
	ratios := map[dates.Date]float64{}
	for off := 0; off < 60; off += 5 {
		d := day.AddDays(-off)
		s, u := lab.APNIC.CountryTotals(cc, d)
		if s > 0 {
			ratios[d] = core.ElasticityRatio(u, float64(s))
		}
	}
	best, ok := core.BestDay(ratios)
	if !ok {
		fmt.Printf("\n%s: no day with usable data in the window\n", cc)
		return
	}
	fmt.Printf("\nbest-day selection for %s: use %s instead of %s\n", cc, best, day)
	fmt.Printf("  ratio on %s: %.1f users/sample\n", day, ratios[day])
	fmt.Printf("  ratio on %s: %.1f users/sample\n", best, ratios[best])
}
