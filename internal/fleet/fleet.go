// Package fleet sweeps seeds × scenarios in parallel: it builds one world
// per (seed, scenario) pair, runs the paper's per-country reliability
// checklist (core.RunChecks via experiments.CheckAll) against each, and
// aggregates the outcomes into a deterministic stability report.
//
// The sweep answers the question the single-world experiments cannot: how
// stable are the paper's reliability verdicts across random worlds, and
// which declarative shocks (internal/scenario) flip which checks? Every
// world is a pure function of (seed, scenario), so the report is
// byte-identical across runs and worker counts.
package fleet

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dates"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/syncx"
)

// Config parameterizes one sweep.
type Config struct {
	// SeedBase is the first world seed; the sweep runs seeds
	// SeedBase .. SeedBase+Seeds-1. Seeds <= 0 means 1.
	SeedBase uint64
	Seeds    int

	// Scenarios to sweep. The paper scenario is always included (and run
	// first) even if absent from the list: every counterfactual is scored
	// as flips against the same-seed paper world.
	Scenarios []*scenario.Scenario

	// Day is the check day; the zero value selects experiments.Table2Day
	// (the paper's Table 2 snapshot).
	Day dates.Date

	// Workers caps concurrent world builds; <= 0 means GOMAXPROCS.
	Workers int
}

// worldOutcome is one (seed, scenario) world's raw check output.
type worldOutcome struct {
	seed    uint64
	reports map[string]core.Report
	err     error
}

// Run executes the sweep and aggregates the stability report.
//
// Scheduling runs the jobs through syncx.ParallelEach, each writing its
// own slot of a results slice, so output order never depends on
// completion order. Each job builds its own Lab (worlds share nothing),
// which keeps the pool embarrassingly parallel; the singleflight caches
// inside a Lab only matter within one job's CheckAll.
func Run(cfg Config) (*Report, error) {
	if cfg.Seeds <= 0 {
		cfg.Seeds = 1
	}
	day := cfg.Day
	if (day == dates.Date{}) {
		day = experiments.Table2Day
	}
	scns := rosterWithPaper(cfg.Scenarios)
	for i, s := range scns {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: scenario %d: %w", i, err)
		}
	}

	type job struct{ scn, seed int }
	jobs := make([]job, 0, len(scns)*cfg.Seeds)
	for si := range scns {
		for k := 0; k < cfg.Seeds; k++ {
			jobs = append(jobs, job{scn: si, seed: k})
		}
	}
	outcomes := make([][]worldOutcome, len(scns))
	for i := range outcomes {
		outcomes[i] = make([]worldOutcome, cfg.Seeds)
	}

	syncx.ParallelEach(len(jobs), cfg.Workers, func(i int) {
		j := jobs[i]
		seed := cfg.SeedBase + uint64(j.seed)
		out := worldOutcome{seed: seed}
		l, err := experiments.NewLabScenario(seed, scns[j.scn])
		if err != nil {
			out.err = err
		} else {
			out.reports = experiments.CheckAll(l, day)
		}
		outcomes[j.scn][j.seed] = out
	})

	for si, row := range outcomes {
		for _, out := range row {
			if out.err != nil {
				return nil, fmt.Errorf("fleet: seed %d scenario %s: %w",
					out.seed, scns[si].Name, out.err)
			}
		}
	}
	return aggregate(scns, outcomes, cfg, day), nil
}

// rosterWithPaper returns the scenario roster with the paper baseline
// guaranteed present and first.
func rosterWithPaper(in []*scenario.Scenario) []*scenario.Scenario {
	out := make([]*scenario.Scenario, 0, len(in)+1)
	var paper *scenario.Scenario
	for _, s := range in {
		if s.Name == "paper" && paper == nil {
			paper = s
			continue
		}
		out = append(out, s)
	}
	if paper == nil {
		paper = scenario.Paper()
	}
	return append([]*scenario.Scenario{paper}, out...)
}

// aggregate folds raw per-world check reports into the stability report.
// Every loop runs in sorted order so the result is deterministic.
func aggregate(scns []*scenario.Scenario, outcomes [][]worldOutcome, cfg Config, day dates.Date) *Report {
	rep := &Report{
		Day:      day.String(),
		SeedBase: cfg.SeedBase,
		Seeds:    cfg.Seeds,
	}
	paperRow := outcomes[0]
	for si, scn := range scns {
		sum := ScenarioSummary{Scenario: scn.Name, Worlds: len(outcomes[si])}
		verdicts := map[string]int{}
		checks := map[string]*CheckStat{}
		flips := map[string]*FlipStat{}

		for k, out := range outcomes[si] {
			codes := sortedKeys(out.reports)
			for _, cc := range codes {
				r := out.reports[cc]
				verdicts[r.Verdict.String()]++
				var base *core.Report
				if si > 0 {
					if b, ok := paperRow[k].reports[cc]; ok {
						base = &b
					}
				}
				for _, c := range r.Checks {
					st := checks[c.Name]
					if st == nil {
						st = &CheckStat{Name: c.Name}
						checks[c.Name] = st
					}
					st.Total++
					if c.Passed {
						st.Passed++
					}
					if base != nil {
						if bc, ok := findCheck(base, c.Name); ok && bc.Passed != c.Passed {
							fl := flips[c.Name]
							if fl == nil {
								fl = &FlipStat{Check: c.Name}
								flips[c.Name] = fl
							}
							if bc.Passed {
								fl.PassToFail++
							} else {
								fl.FailToPass++
							}
							if len(fl.Examples) < maxFlipExamples {
								fl.Examples = append(fl.Examples,
									fmt.Sprintf("seed%d/%s", out.seed, cc))
							}
						}
					}
				}
			}
		}

		for _, name := range sortedKeys(checks) {
			sum.Checks = append(sum.Checks, *checks[name])
		}
		for _, name := range sortedKeys(flips) {
			sum.Flips = append(sum.Flips, *flips[name])
		}
		sum.Verdicts = verdicts
		rep.Scenarios = append(rep.Scenarios, sum)
	}
	return rep
}

// maxFlipExamples caps the per-check example list in the report.
const maxFlipExamples = 8

func findCheck(r *core.Report, name string) (core.CheckResult, bool) {
	for _, c := range r.Checks {
		if c.Name == name {
			return c, true
		}
	}
	return core.CheckResult{}, false
}

// sortedKeys returns the keys of m in sorted order, the fixed iteration
// order that keeps the report byte-identical.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
