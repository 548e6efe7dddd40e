package core

import (
	"sort"

	"repro/internal/orgs"
)

// Overlap quantifies how two datasets' (country, org) pair sets relate
// (§4.2, Figure 3): the raw pair counts, and how much of a weighting
// (users, User-Agents, traffic volume) the common pairs carry.
type Overlap struct {
	Both     int     // pairs in both datasets
	AOnly    int     // pairs only in the first dataset
	BOnly    int     // pairs only in the second dataset
	BothPctA float64 // share of dataset-A weight on common pairs
	BothPctB float64 // share of dataset-B weight on common pairs
}

// ComputeOverlap intersects the key sets of two (country, org)-keyed
// weightings and reports both the pair counts and the weighted coverage.
// Iteration is in sorted key order so the floating-point sums are
// bit-reproducible across runs.
func ComputeOverlap(a, b map[orgs.CountryOrg]float64) Overlap {
	var o Overlap
	var aBoth, aTotal, bBoth, bTotal float64
	for _, k := range orgs.SortedPairs(a) {
		v := a[k]
		aTotal += v
		if _, ok := b[k]; ok {
			o.Both++
			aBoth += v
		} else {
			o.AOnly++
		}
	}
	for _, k := range orgs.SortedPairs(b) {
		v := b[k]
		bTotal += v
		if _, ok := a[k]; ok {
			bBoth += v
		} else {
			o.BOnly++
		}
	}
	if aTotal > 0 {
		o.BothPctA = 100 * aBoth / aTotal
	}
	if bTotal > 0 {
		o.BothPctB = 100 * bBoth / bTotal
	}
	return o
}

// CountryCoverage is one row of the paper's Tables 3/5: within one
// country, the percentage of dataset-B weight (e.g. CDN traffic volume)
// carried by pairs also present in dataset A (APNIC).
type CountryCoverage struct {
	Country string
	Pct     float64
}

// PerCountryCoverage computes, per country, the share of b's weight on
// pairs present in a. Countries present in b but absent from a entirely
// get 0%.
func PerCountryCoverage(a, b map[orgs.CountryOrg]float64) []CountryCoverage {
	type acc struct{ both, total float64 }
	byCountry := map[string]*acc{}
	// Sorted key order keeps the per-country float sums bit-reproducible
	// across runs, as in ComputeOverlap.
	for _, k := range orgs.SortedPairs(b) {
		v := b[k]
		c := byCountry[k.Country]
		if c == nil {
			c = &acc{}
			byCountry[k.Country] = c
		}
		c.total += v
		if _, ok := a[k]; ok {
			c.both += v
		}
	}
	out := make([]CountryCoverage, 0, len(byCountry))
	for cc, c := range byCountry {
		pct := 0.0
		if c.total > 0 {
			pct = 100 * c.both / c.total
		}
		out = append(out, CountryCoverage{Country: cc, Pct: pct})
	}
	// Sort by coverage descending, then by country for determinism —
	// the order Tables 3/5 use.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pct != out[j].Pct {
			return out[i].Pct > out[j].Pct
		}
		return out[i].Country < out[j].Country
	})
	return out
}
