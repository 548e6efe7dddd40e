// Command fleet sweeps seeds × scenarios in parallel and reports how
// stable the paper's reliability checks are across worlds. Each
// (seed, scenario) pair builds one world, runs the per-country checklist
// (sample sufficiency, elasticity band, temporal stability, M-Lab
// cross-check), and the sweep aggregates pass rates, verdict counts, and
// check flips against the same-seed paper baseline.
//
// The report is deterministic: same flags → identical bytes, with or
// without -parallel.
//
// Usage:
//
//	fleet -seeds 4 -scenarios 4 -parallel
//	fleet -seeds 2 -scenarios 3 -json report.json -out report.md
//	fleet -seeds 2 -scenario-file my-scenario.json -day 2024-04-21
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dates"
	"repro/internal/fleet"
	"repro/internal/scenario"
)

func main() {
	seeds := flag.Int("seeds", 2, "number of world seeds (seed-base .. seed-base+N-1)")
	seedBase := flag.Uint64("seed-base", 42, "first world seed")
	nScenarios := flag.Int("scenarios", 2, "sweep the first N builtin scenarios (paper is always included)")
	scenarioFile := flag.String("scenario-file", "", "also sweep a scenario loaded from this JSON file")
	day := flag.String("day", "", "check day (YYYY-MM-DD); default is the paper's Table 2 snapshot")
	out := flag.String("out", "", "write the markdown report here instead of stdout")
	jsonOut := flag.String("json", "", "also write the report as JSON to this path")
	parallel := flag.Bool("parallel", false, "build worlds on all CPUs (default: one worker)")
	list := flag.Bool("list", false, "list builtin scenarios and exit")
	flag.Parse()

	if *list {
		for _, s := range scenario.Builtins() {
			fmt.Printf("%-18s %s\n", s.Name, s.Notes)
		}
		return
	}

	builtins := scenario.Builtins()
	if *nScenarios < 1 || *nScenarios > len(builtins) {
		fail(fmt.Errorf("-scenarios must be in 1..%d", len(builtins)))
	}
	scns := builtins[:*nScenarios]
	if *scenarioFile != "" {
		s, err := scenario.LoadFile(*scenarioFile)
		if err != nil {
			fail(err)
		}
		scns = append(append([]*scenario.Scenario{}, scns...), s)
	}

	cfg := fleet.Config{
		SeedBase:  *seedBase,
		Seeds:     *seeds,
		Scenarios: scns,
	}
	if *day != "" {
		d, err := dates.Parse(*day)
		if err != nil {
			fail(err)
		}
		cfg.Day = d
	}
	if !*parallel {
		cfg.Workers = 1 // else 0: GOMAXPROCS
	}

	rep, err := fleet.Run(cfg)
	if err != nil {
		fail(err)
	}

	md := rep.Markdown()
	if *out == "" {
		fmt.Print(md)
	} else if err := os.WriteFile(*out, []byte(md), 0o644); err != nil {
		fail(err)
	}
	if *jsonOut != "" {
		buf, err := rep.JSON()
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
	os.Exit(1)
}
