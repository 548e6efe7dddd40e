package mlab

import (
	"fmt"
	"sort"

	"repro/internal/dates"
	"repro/internal/obsv"
	"repro/internal/orgs"
	"repro/internal/source"
)

// DatasetName is the registry name of the M-Lab test-count dataset.
const DatasetName = "mlab"

// Frame converts the dataset to the uniform columnar form, one row per
// (country, org) pair sorted by country then org. The frame date is the
// month start, matching the native artifact. Lossless: DatasetFromFrame
// reconstructs an equal dataset.
func (ds *Dataset) Frame() *source.Frame {
	pairs := make([]orgs.CountryOrg, 0, len(ds.Counts))
	for pair := range ds.Counts {
		pairs = append(pairs, pair)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Country != pairs[j].Country {
			return pairs[i].Country < pairs[j].Country
		}
		return pairs[i].Org < pairs[j].Org
	})
	f := source.NewFrame(DatasetName, ds.Month)
	cc := f.AddStrings("CC")
	org := f.AddStrings("Org")
	tests := f.AddFloats("Tests")
	for _, pair := range pairs {
		cc.Strs = append(cc.Strs, pair.Country)
		org.Strs = append(org.Strs, pair.Org)
		tests.Floats = append(tests.Floats, ds.Counts[pair])
	}
	return f
}

// DatasetFromFrame reconstructs the native dataset from its frame form.
func DatasetFromFrame(f *source.Frame) (*Dataset, error) {
	cc, org, tests := f.Col("CC"), f.Col("Org"), f.Col("Tests")
	if cc == nil || org == nil || tests == nil {
		return nil, fmt.Errorf("mlab: frame is missing dataset columns")
	}
	ds := &Dataset{Month: f.Date, Counts: make(map[orgs.CountryOrg]float64, f.Rows())}
	for i := 0; i < f.Rows(); i++ {
		ds.Counts[orgs.CountryOrg{Country: cc.Strs[i], Org: org.Strs[i]}] = tests.Floats[i]
	}
	return ds, nil
}

// Source adapts the generator to the uniform source interface. Its typed
// accessor caches native datasets keyed by month start, so any day of a
// month resolves to the same dataset without regeneration.
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
	return source.Window{First: source.SpanFirst, Last: source.SpanLast, Cadence: source.CadenceMonthly}
}

// Dataset returns the memoized native dataset for the month containing d.
func (s *Source) Dataset(d dates.Date) *Dataset {
	return s.days.Get(dates.New(d.Year, d.Month, 1), s.gen.Generate)
}

// Generate implements source.Source. It builds the frame straight from
// the generator, bypassing the native cache: the registry memoizes the
// frame itself, so a native copy would only double the resident day.
func (s *Source) Generate(d dates.Date) *source.Frame {
	return s.gen.Generate(dates.New(d.Year, d.Month, 1)).Frame()
}

// CacheStats reports the native dataset cache's activity.
func (s *Source) CacheStats() source.CacheStats { return s.days.Stats() }
