package broadband

import (
	"fmt"
	"sort"

	"repro/internal/dates"
	"repro/internal/obsv"
	"repro/internal/source"
)

// DatasetName is the registry name of the broadband survey dataset.
const DatasetName = "broadband"

// Frame converts the survey to the uniform columnar form, one row per
// surveyed (country, org) pair sorted by country then org. Lossless:
// DatasetFromFrame reconstructs an equal dataset. Shares are always
// positive (zero-subscriber orgs never survive the survey floor), so the
// flat rows encode the nested map exactly.
func (ds *Dataset) Frame() *source.Frame {
	f := source.NewFrame(DatasetName, ds.Date)
	cc := f.AddStrings("CC")
	org := f.AddStrings("Org")
	share := f.AddFloats("Share")
	ccs := make([]string, 0, len(ds.Shares))
	for c := range ds.Shares {
		ccs = append(ccs, c)
	}
	sort.Strings(ccs)
	for _, c := range ccs {
		row := ds.Shares[c]
		ids := make([]string, 0, len(row))
		for id := range row {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			cc.Strs = append(cc.Strs, c)
			org.Strs = append(org.Strs, id)
			share.Floats = append(share.Floats, row[id])
		}
	}
	return f
}

// DatasetFromFrame reconstructs the native survey from its frame form.
func DatasetFromFrame(f *source.Frame) (*Dataset, error) {
	cc, org, share := f.Col("CC"), f.Col("Org"), f.Col("Share")
	if cc == nil || org == nil || share == nil {
		return nil, fmt.Errorf("broadband: frame is missing survey columns")
	}
	ds := &Dataset{Date: f.Date, Shares: map[string]map[string]float64{}}
	for i := 0; i < f.Rows(); i++ {
		row := ds.Shares[cc.Strs[i]]
		if row == nil {
			row = map[string]float64{}
			ds.Shares[cc.Strs[i]] = row
		}
		row[org.Strs[i]] = share.Floats[i]
	}
	return ds, nil
}

// Source adapts the generator to the uniform source interface. Its typed
// accessor caches the native surveys day-keyed for the experiment lab.
type Source struct {
	gen  *Generator
	days *source.Days[*Dataset]
}

// NewSource wraps a generator as a registrable source.
func NewSource(gen *Generator, metrics *obsv.Registry, cacheDays int) *Source {
	return &Source{
		gen:  gen,
		days: source.NewDays[*Dataset](metrics, "source", DatasetName, cacheDays),
	}
}

// Generator returns the wrapped generator.
func (s *Source) Generator() *Generator { return s.gen }

// Name implements source.Source.
func (s *Source) Name() string { return DatasetName }

// Window implements source.Source.
func (s *Source) Window() source.Window {
	return source.Window{First: source.SpanFirst, Last: source.SpanLast, Cadence: source.CadenceSurvey}
}

// Dataset returns the memoized native survey for a day.
func (s *Source) Dataset(d dates.Date) *Dataset {
	return s.days.Get(d, s.gen.Generate)
}

// Generate implements source.Source. It builds the frame straight from
// the generator, bypassing the native cache: the registry memoizes the
// frame itself, so a native copy would only double the resident day.
func (s *Source) Generate(d dates.Date) *source.Frame {
	return s.gen.Generate(d).Frame()
}

// CacheStats reports the native survey cache's activity.
func (s *Source) CacheStats() source.CacheStats { return s.days.Stats() }
