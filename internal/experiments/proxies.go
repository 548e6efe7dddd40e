package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/report"
	"repro/internal/stats"
)

// ExtProxies compares every *public* traffic/user proxy the paper touches
// against the (private) CDN ground truth, per country, on the primary
// comparison day:
//
//   - APNIC user estimates (§3.2 — the paper's subject),
//   - DNS query counts (§7's client-identification prior work),
//   - IXP registry capacity (§3.6),
//   - traceroute path popularity (§7's weighted-Internet-graph prior
//     work, with vantage bias and hop loss).
//
// For each proxy it reports median per-country Spearman correlation with
// CDN traffic volume plus pair coverage — the quantitative version of
// §7's qualitative comparison. Expected shape: APNIC leads on
// correlation; DNS leads on coverage but trails on magnitude; IXP and
// traceroute sit in between with poor coverage or heavy bias.
func ExtProxies(l *Lab) *Result {
	rep := l.Report(PrimaryCDNDay)
	snap := l.Snapshot(PrimaryCDNDay)
	ix := l.IXPData(PrimaryCDNDay)
	dns := l.DNSData(PrimaryCDNDay)

	campaign := l.Campaign()
	popularity := l.PathPopularity(PrimaryCDNDay, 150)

	type proxy struct {
		name   string
		shares func(cc string) map[string]float64
	}
	proxies := []proxy{
		{"apnic-users", func(cc string) map[string]float64 {
			return stats.NormalizeMap(rep.CountryOrgUsers(l.W.Registry, cc))
		}},
		{"dns-queries", dns.CountryShares},
		{"ixp-capacity", func(cc string) map[string]float64 {
			return stats.NormalizeMap(ix.CountryCapacities(cc))
		}},
		{"path-popularity", func(cc string) map[string]float64 {
			return popularity.CountryShares(l.W.Registry, cc)
		}},
	}

	countries := l.W.Countries()
	truePairs := l.W.CountryOrgPairs(PrimaryCDNDay)
	metrics := map[string]float64{}
	var rows [][]string
	for _, p := range proxies {
		// Build each country's share map once per proxy. The correlation
		// pass and the per-pair coverage pass below both read from this
		// table; the coverage pass used to recompute the full map once per
		// true pair, which dominated the runner's cost.
		shareByCC := make(map[string]map[string]float64, len(countries))
		for _, cc := range countries {
			shareByCC[cc] = p.shares(cc)
		}
		var corrs []float64
		for _, cc := range countries {
			vol := snap.VolumeShares(cc)
			sh := shareByCC[cc]
			if len(sh) < 5 || len(vol) < 5 {
				continue
			}
			a, b, _ := stats.AlignShares(sh, vol)
			r := stats.Spearman(a, b)
			if !math.IsNaN(r) {
				corrs = append(corrs, r)
			}
		}
		// Coverage over the true pair set.
		covered := 0
		for _, pair := range truePairs {
			if shareByCC[pair.Country][pair.Org] > 0 {
				covered++
			}
		}
		coverage := 100 * float64(covered) / float64(len(truePairs))
		median := stats.Median(corrs)
		rows = append(rows, []string{
			p.name,
			report.F(median, 2),
			fmt.Sprintf("%d", len(corrs)),
			report.Pct(coverage),
		})
		key := strings.ReplaceAll(p.name, "-", "_")
		metrics[key+"_spearman"] = median
		metrics[key+"_coverage"] = coverage
	}
	metrics["traces"] = float64(popularity.Traces)
	metrics["lost_hops"] = float64(popularity.LostHops)

	var b strings.Builder
	b.WriteString(report.Table([]string{"Proxy", "median Spearman vs CDN volume", "countries", "pair coverage"}, rows))
	fmt.Fprintf(&b, "\ntraceroute campaign: %d vantages, %d traces, %d hops lost to measurement error\n",
		len(campaign.Vantages), popularity.Traces, popularity.LostHops)

	return &Result{
		ID:      "Extension: proxy comparison",
		Title:   "Public traffic proxies vs CDN ground truth (§7's landscape, quantified)",
		Text:    b.String(),
		Metrics: metrics,
	}
}
