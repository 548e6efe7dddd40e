package apnic

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/dates"
	"repro/internal/orgs"
	"repro/internal/stats"
)

// Archive is a collection of daily reports loaded from disk — the form in
// which researchers consume the real dataset (one CSV per day). It
// supports per-day lookup and per-(country, AS) time-series queries like
// the ones behind the paper's Figure 1.
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

// LoadArchive reads every "apnic-*.csv" file in a directory (the layout
// cmd/apnicgen writes).
func LoadArchive(dir string) (*Archive, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "apnic-*.csv"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("apnic: no apnic-*.csv files in %s", dir)
	}
	sort.Strings(matches)
	a := NewArchive()
	for _, path := range matches {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		rep, err := ReadCSV(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("apnic: loading %s: %w", filepath.Base(path), err)
		}
		a.Add(rep)
	}
	return a, nil
}

// Len returns the number of days in the archive.
func (a *Archive) Len() int { return len(a.reports) }

// Days returns the archived days in ascending order.
func (a *Archive) Days() []dates.Date {
	return append([]dates.Date(nil), a.days...)
}

// Report returns the report for a day.
func (a *Archive) Report(d dates.Date) (*Report, bool) {
	r, ok := a.reports[d]
	return r, ok
}

// Nearest returns the archived report closest to d (ties resolve to the
// earlier day). ok is false for an empty archive.
func (a *Archive) Nearest(d dates.Date) (*Report, bool) {
	if len(a.days) == 0 {
		return nil, false
	}
	best := a.days[0]
	bestDist := abs(d.Sub(best))
	for _, day := range a.days[1:] {
		if dist := abs(d.Sub(day)); dist < bestDist {
			best, bestDist = day, dist
		}
	}
	return a.reports[best], true
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
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

// CountrySeries returns per-day totals for one country.
func (a *Archive) CountrySeries(country string) []Point {
	var out []Point
	for _, d := range a.days {
		var p Point
		p.Date = d
		found := false
		for _, row := range a.reports[d].Rows {
			if row.CC == country {
				p.Users += row.Users
				p.Samples += row.Samples
				found = true
			}
		}
		if found {
			out = append(out, p)
		}
	}
	return out
}

// OrgShareSeries returns, for each archived day, a country's per-org user
// shares — the input to the temporal-stability analysis (§5.1.2).
func (a *Archive) OrgShareSeries(reg *orgs.Registry, country string) []map[string]float64 {
	var out []map[string]float64
	for _, d := range a.days {
		users := a.reports[d].CountryOrgUsers(reg, country)
		// Sorted-order summation keeps the shares bit-reproducible.
		if stats.SumMap(users) == 0 {
			continue
		}
		out = append(out, stats.NormalizeMap(users))
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

// WriteDir writes every report as apnic-<date>.csv into dir, creating it
// if needed — the inverse of LoadArchive.
func (a *Archive) WriteDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range a.days {
		var b strings.Builder
		if err := a.reports[d].WriteCSV(&b); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("apnic-%s.csv", d))
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
