// Package experiments wires the dataset simulators to the core validation
// toolkit and regenerates every table and figure of the paper's
// evaluation. Each runner returns a Result carrying rendered text, the
// headline metrics, and the paper's corresponding values, so that
// EXPERIMENTS.md and the benchmark harness can report paper-vs-measured
// side by side.
package experiments

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/apnic"
	"repro/internal/astopo"
	"repro/internal/broadband"
	"repro/internal/cdn"
	"repro/internal/dates"
	"repro/internal/dnscount"
	"repro/internal/itu"
	"repro/internal/ixp"
	"repro/internal/mlab"
	"repro/internal/obsv"
	"repro/internal/rir"
	"repro/internal/scenario"
	"repro/internal/source"
	"repro/internal/syncx"
	"repro/internal/world"
)

// Reference dates, mirroring the paper's data pulls.
var (
	// PrimaryCDNDay is the main comparison day (§3.4 lists 2023-07-20).
	PrimaryCDNDay = dates.New(2023, 7, 20)
	// Table2Day is the snapshot of Table 2.
	Table2Day = dates.New(2024, 4, 21)
	// Figure6Day is the elasticity snapshot (Figure 6's caption).
	Figure6Day = dates.New(2024, 8, 9)
	// BroadbandDay is the Broadband Subscriber collection window.
	BroadbandDay = dates.New(2024, 3, 1)
	// CDN2024Days are the 2024 log days of Appendix C.
	CDN2024Days = []dates.Date{
		dates.New(2024, 4, 1), dates.New(2024, 4, 2),
		dates.New(2024, 5, 2), dates.New(2024, 5, 3),
		dates.New(2024, 8, 9), dates.New(2024, 8, 10),
		dates.New(2024, 8, 11), dates.New(2024, 8, 12),
	}
)

// Lab bundles one world with all its measurement simulators, caching the
// expensive daily artifacts.
//
// Lab is safe for concurrent use: the generators themselves are read-only
// after construction (the splittable RNG derives child streams without
// advancing the parent), and the day caches are per-day singleflight
// entries, so concurrent runners needing the same day block only on that
// day's in-flight generation while distinct days generate in parallel.
// Each day's artifact is a pure function of (seed, date), which is what
// makes RunAll's output independent of parallelism.
type Lab struct {
	Seed      uint64
	W         *world.World
	ITU       *itu.Estimator
	APNIC     *apnic.Generator
	CDN       *cdn.Generator
	Broadband *broadband.Generator
	MLab      *mlab.Generator
	DNS       *dnscount.Generator
	IXP       *ixp.Generator
	RIR       *rir.Generator

	// Metrics is the lab's observability registry. The source day caches
	// count their requests and generations here, RunAll records
	// per-runner wall time into it, and cmd/experiments can dump it on
	// exit.
	Metrics *obsv.Registry

	// Day caches of the native values the runners read, one per dataset
	// (ITU reaches the runners only through APNIC's scaling, so it has
	// none), each bounded by LabCacheDays and filled straight from the
	// generators above. They report as the "source" metrics family
	// (source_requests_total{dataset="apnic"}, ...). The runners never
	// read frames, so the lab holds no registry and no frame cache.
	reports   *source.Days[*apnic.Report]
	snapshots *source.Days[*cdn.Snapshot]
	mlabData  *source.Days[*mlab.Dataset]
	dnsData   *source.Days[*dnscount.Dataset]
	bbData    *source.Days[*broadband.Dataset]
	ixpData   *source.Days[*ixp.Snapshot]

	// Shared traceroute artifacts: the AS graph and campaign are built at
	// most once per lab, and each (day, traces) campaign run at most once.
	topo     func() *astopo.Graph    // sync.OnceValue
	campaign func() *astopo.Campaign // sync.OnceValue
	pops     syncx.Cache[popKey, *astopo.Popularity]

	popReqs *obsv.Counter // path-popularity cache lookups
	popGens *obsv.Counter // campaign runs (one per distinct (day, traces))
}

// popKey identifies one memoized campaign result.
type popKey struct {
	day    int // dates.Date.DayNumber()
	traces int // traces per vantage
}

// LabVantages is the vantage count of the lab's shared traceroute
// campaign — ExtProxies' configuration (24 probes, ~70% western bias).
const LabVantages = 24

// LabCacheDays bounds each dataset's day cache. The simulated decade is
// ~4100 days; holding them all preserves the previous behavior (each
// distinct day generated exactly once per lab) while still putting a
// ceiling on residency.
const LabCacheDays = 4200

// NewLab builds a world and all generators from one seed, under the paper
// scenario.
func NewLab(seed uint64) *Lab {
	l, err := NewLabScenario(seed, nil)
	if err != nil {
		// nil selects scenario.Paper(), which always compiles.
		panic(err)
	}
	return l
}

// NewLabScenario builds a world under an explicit scenario (nil selects
// scenario.Paper()) and wires all measurement generators to it. The
// generators are scenario-agnostic: they read shocks through the world's
// market seams, so a lab over a counterfactual world exercises exactly
// the measurement code paths the paper lab does.
func NewLabScenario(seed uint64, scn *scenario.Scenario) (*Lab, error) {
	w, err := world.Build(world.Config{Seed: seed, Scenario: scn})
	if err != nil {
		return nil, err
	}
	ituEst := itu.New(w, seed)
	l := &Lab{
		Seed:      seed,
		W:         w,
		ITU:       ituEst,
		APNIC:     apnic.New(w, ituEst, seed),
		CDN:       cdn.New(w, seed),
		Broadband: broadband.New(w, seed),
		MLab:      mlab.New(w, seed),
		DNS:       dnscount.New(w, seed),
		IXP:       ixp.New(w, seed),
		RIR:       rir.New(w, seed),
		Metrics:   obsv.NewRegistry(),
	}
	l.reports = source.NewDays[*apnic.Report](l.Metrics, "source", apnic.DatasetName, LabCacheDays)
	l.snapshots = source.NewDays[*cdn.Snapshot](l.Metrics, "source", cdn.DatasetName, LabCacheDays)
	l.mlabData = source.NewDays[*mlab.Dataset](l.Metrics, "source", mlab.DatasetName, LabCacheDays)
	l.dnsData = source.NewDays[*dnscount.Dataset](l.Metrics, "source", dnscount.DatasetName, LabCacheDays)
	l.bbData = source.NewDays[*broadband.Dataset](l.Metrics, "source", broadband.DatasetName, LabCacheDays)
	l.ixpData = source.NewDays[*ixp.Snapshot](l.Metrics, "source", ixp.DatasetName, LabCacheDays)
	l.topo = sync.OnceValue(func() *astopo.Graph { return astopo.BuildGraph(l.W, l.Seed) })
	l.campaign = sync.OnceValue(func() *astopo.Campaign {
		return astopo.NewCampaign(l.W, l.Topology(), l.Seed, LabVantages)
	})
	l.popReqs = l.Metrics.Counter("lab_path_popularity_requests_total")
	l.popGens = l.Metrics.Counter("lab_path_popularity_runs_total")
	l.Metrics.GaugeFunc("lab_path_popularity_cache_entries", func() float64 { return float64(l.pops.Len()) })
	return l, nil
}

// Report returns the cached APNIC report for a day, generating it at most
// once even under concurrent access.
func (l *Lab) Report(d dates.Date) *apnic.Report {
	return l.reports.Get(d, l.APNIC.Generate)
}

// Snapshot returns the cached CDN snapshot for a day, generating it at
// most once even under concurrent access.
func (l *Lab) Snapshot(d dates.Date) *cdn.Snapshot {
	return l.snapshots.Get(d, l.CDN.Generate)
}

// MLabData returns the cached M-Lab dataset for the month containing d.
func (l *Lab) MLabData(d dates.Date) *mlab.Dataset {
	return l.mlabData.Get(dates.New(d.Year, d.Month, 1), l.MLab.Generate)
}

// DNSData returns the cached open-resolver query dataset for a day.
func (l *Lab) DNSData(d dates.Date) *dnscount.Dataset {
	return l.dnsData.Get(d, l.DNS.Generate)
}

// BroadbandData returns the cached broadband survey for a day.
func (l *Lab) BroadbandData(d dates.Date) *broadband.Dataset {
	return l.bbData.Get(d, l.Broadband.Generate)
}

// IXPData returns the cached IXP registry scrape for a day.
func (l *Lab) IXPData(d dates.Date) *ixp.Snapshot {
	return l.ixpData.Get(d, l.IXP.Generate)
}

// Topology returns the lab's shared AS-relationship graph, built at most
// once even under concurrent access.
func (l *Lab) Topology() *astopo.Graph { return l.topo() }

// Campaign returns the shared traceroute campaign (LabVantages probes)
// over the lab topology, built at most once. Per-vantage path trees are
// memoized inside the campaign, so repeat days only pay for tracing.
func (l *Lab) Campaign() *astopo.Campaign { return l.campaign() }

// PathPopularity returns the memoized campaign result for one
// (day, tracesPerVantage) pair, running the campaign at most once per
// pair even under concurrent runners.
func (l *Lab) PathPopularity(d dates.Date, tracesPerVantage int) *astopo.Popularity {
	l.popReqs.Inc()
	return l.pops.Get(popKey{d.DayNumber(), tracesPerVantage}, func() *astopo.Popularity {
		l.popGens.Inc()
		return l.Campaign().Run(d, tracesPerVantage)
	})
}

// CacheStats reports how many day artifacts have been generated so far.
// Under the singleflight contract each counter equals the number of
// distinct days requested, no matter how many goroutines asked.
func (l *Lab) CacheStats() (apnicDays, cdnDays int64) {
	return l.reports.Stats().Gens, l.snapshots.Stats().Gens
}

// Result is one regenerated table or figure.
type Result struct {
	ID    string // "Table 2", "Figure 4", ...
	Title string
	Text  string // rendered table / series data

	// Metrics are this run's headline numbers; Paper holds the values
	// the paper reports for the same quantities (keys match Metrics
	// where a direct counterpart exists).
	Metrics map[string]float64
	Paper   map[string]float64
}

// Runner regenerates one experiment.
type Runner struct {
	Name string // canonical ID, e.g. "Table2"
	Desc string
	Run  func(*Lab) *Result
}

// Runners lists every experiment in paper order.
func Runners() []Runner {
	return []Runner{
		{"Table1", "Summary of datasets", Table1},
		{"Table2", "Top 5 (country, AS) by estimated users", Table2},
		{"Figure1", "Users and samples over time for major French ISPs", Figure1},
		{"Figure2", "Broadband Subscriber vs APNIC user percentages", Figure2},
		{"Figure3", "Overlap of (country, org) pairs and weighted coverage", Figure3},
		{"Table3", "Per-country traffic coverage of overlapping pairs", Table3},
		{"Table4", "Agreement conditions across correlation metrics", Table4},
		{"Figure4", "Pearson vs Kendall agreement, User-Agents and traffic", Figure4},
		{"Figure5", "Outlier countries: Russia, Norway, India, Myanmar", Figure5},
		{"Figure6", "Samples vs user estimates, log-log elasticity", Figure6},
		{"Figure7", "Fraction of 2024 days above the elasticity bound", Figure7},
		{"Figure8", "K-S stability of user distributions across granularities", Figure8},
		{"Figure9", "M-Lab agreement predicts CDN agreement", Figure9},
		{"Figure10", "MIC of APNIC vs APNIC+IXP against CDN volume", Figure10},
		{"Figure11", "Consolidation: orgs needed to cover 95% of users", Figure11},
		{"Figure12", "Max User-Agent share differences across 2024 days", Figure12},
		{"Table6", "Allocated and advertised ASN changes per region", Table6},
		{"Figure13", "IXP capacity vs PNI capacity", Figure13},
		{"ExtDrivers", "Extension: key players driving consolidation", ExtDrivers},
		{"ExtTrafficModel", "Extension: cross-validated traffic model", ExtTrafficModel},
		{"ExtProxies", "Extension: public traffic proxies vs CDN ground truth", ExtProxies},
	}
}

// RunnerByName finds a runner by its canonical name (case-insensitive).
func RunnerByName(name string) (Runner, bool) {
	for _, r := range Runners() {
		if strings.EqualFold(r.Name, name) {
			return r, true
		}
	}
	return Runner{}, false
}

// sortedMetricKeys returns a result's metric keys in stable order.
func sortedMetricKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
