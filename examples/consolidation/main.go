// Consolidation: track how many organizations are needed to cover 95% of
// a country's users over time (§6), using the validated APNIC dataset
// with the best-day selection rule. Prints per-country trajectories for a
// few contrasting markets and the 2019→2024 percentage change.
//
//	go run ./examples/consolidation
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dates"
	"repro/internal/experiments"
)

func main() {
	lab := experiments.NewLab(1)

	// Contrasting §6 stories: Brazil diversifies, India consolidates,
	// Germany drifts down slowly, Kenya consolidates mildly.
	countries := []string{"BR", "IN", "DE", "KE"}
	years := []int{2019, 2020, 2021, 2022, 2023, 2024}

	fmt.Println("organizations needed to cover 95% of estimated users:")
	fmt.Printf("%-4s", "")
	for _, y := range years {
		fmt.Printf("%7d", y)
	}
	fmt.Printf("%10s\n", "2019→2024")

	for _, cc := range countries {
		counts := map[int]int{}
		for _, y := range years {
			// Mid-year snapshot via the best-day rule over Q2.
			ratios := map[dates.Date]float64{}
			for off := 0; off < 60; off += 5 {
				d := dates.New(y, 4, 1).AddDays(off)
				s, u := lab.APNIC.CountryTotals(cc, d)
				if s > 0 {
					ratios[d] = core.ElasticityRatio(u, float64(s))
				}
			}
			day, ok := core.BestDay(ratios)
			if !ok {
				continue
			}
			shares := lab.APNIC.CountryOrgShares(cc, day)
			counts[y] = core.OrgsToCover(shares, 0.95)
		}
		fmt.Printf("%-4s", cc)
		for _, y := range years {
			fmt.Printf("%7d", counts[y])
		}
		if counts[2019] > 0 {
			pct := 100 * (float64(counts[2024])/float64(counts[2019]) - 1)
			fmt.Printf("%9.1f%%", pct)
		}
		fmt.Println()
	}
	fmt.Println("\npositive = market diversifying; negative = consolidating (§6, Figure 11)")
}
