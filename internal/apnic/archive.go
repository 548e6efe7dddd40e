package apnic

import (
	"sort"

	"repro/internal/dates"
)

// Archive is a collection of daily reports — the form in which
// researchers consume the real dataset (one CSV per day). It answers
// per-(country, AS) time-series queries like the ones behind the paper's
// Figure 1.
type Archive struct {
	reports map[dates.Date]*Report
	days    []dates.Date // sorted
}

// NewArchive returns an empty archive.
func NewArchive() *Archive {
	return &Archive{reports: map[dates.Date]*Report{}}
}

// Add inserts a report, replacing any previous report for the same day.
func (a *Archive) Add(rep *Report) {
	if _, exists := a.reports[rep.Date]; !exists {
		a.days = append(a.days, rep.Date)
		sort.Slice(a.days, func(i, j int) bool { return a.days[i].Before(a.days[j]) })
	}
	a.reports[rep.Date] = rep
}

// Point is one day of a per-(country, AS) series.
type Point struct {
	Date    dates.Date
	Users   float64
	Samples int64
}

// Series extracts the (country, AS) time series across the archive —
// days where the AS is absent (below the sample floor) are skipped,
// exactly as in the published dataset.
func (a *Archive) Series(country string, asn uint32) []Point {
	var out []Point
	for _, d := range a.days {
		for _, row := range a.reports[d].Rows {
			if row.CC == country && row.ASN == asn {
				out = append(out, Point{Date: d, Users: row.Users, Samples: row.Samples})
				break
			}
		}
	}
	return out
}

// ASNsIn returns the ASNs observed for a country anywhere in the archive,
// sorted by their peak estimated users, descending.
func (a *Archive) ASNsIn(country string) []uint32 {
	peak := map[uint32]float64{}
	for _, d := range a.days {
		for _, row := range a.reports[d].Rows {
			if row.CC == country && row.Users > peak[row.ASN] {
				peak[row.ASN] = row.Users
			}
		}
	}
	out := make([]uint32, 0, len(peak))
	for asn := range peak {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool {
		if peak[out[i]] != peak[out[j]] {
			return peak[out[i]] > peak[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}
