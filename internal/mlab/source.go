package mlab

import (
	"fmt"

	"repro/internal/dates"
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
	pairs := orgs.SortedPairs(ds.Counts)
	f := source.NewFrame(DatasetName, ds.Month)
	cc := f.AddStrings("CC")
	org := f.AddStrings("Org")
	tests := f.AddFloats("Tests")
	f.Grow(len(pairs))
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

// NewSource adapts a generator to the uniform source interface. Every
// day of a month resolves to the month-start dataset, so the frame is the
// same for the whole month.
func NewSource(gen *Generator) source.Source {
	return source.NewFunc(DatasetName, source.CadenceMonthly, func(d dates.Date) *source.Frame {
		return gen.Generate(dates.New(d.Year, d.Month, 1)).Frame()
	})
}
