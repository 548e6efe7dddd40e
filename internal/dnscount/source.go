package dnscount

import (
	"fmt"

	"repro/internal/dates"
	"repro/internal/orgs"
	"repro/internal/source"
)

// DatasetName is the registry name of the open-resolver query dataset.
const DatasetName = "dnscount"

// Frame converts the dataset to the uniform columnar form, one row per
// (country, org) pair sorted by country then org. Lossless:
// DatasetFromFrame reconstructs an equal dataset.
func (ds *Dataset) Frame() *source.Frame {
	pairs := orgs.SortedPairs(ds.Queries)
	f := source.NewFrame(DatasetName, ds.Date)
	cc := f.AddStrings("CC")
	org := f.AddStrings("Org")
	q := f.AddFloats("Queries")
	f.Grow(len(pairs))
	for _, pair := range pairs {
		cc.Strs = append(cc.Strs, pair.Country)
		org.Strs = append(org.Strs, pair.Org)
		q.Floats = append(q.Floats, ds.Queries[pair])
	}
	return f
}

// DatasetFromFrame reconstructs the native dataset from its frame form.
func DatasetFromFrame(f *source.Frame) (*Dataset, error) {
	cc, org, q := f.Col("CC"), f.Col("Org"), f.Col("Queries")
	if cc == nil || org == nil || q == nil {
		return nil, fmt.Errorf("dnscount: frame is missing dataset columns")
	}
	ds := &Dataset{Date: f.Date, Queries: make(map[orgs.CountryOrg]float64, f.Rows())}
	for i := 0; i < f.Rows(); i++ {
		ds.Queries[orgs.CountryOrg{Country: cc.Strs[i], Org: org.Strs[i]}] = q.Floats[i]
	}
	return ds, nil
}

// NewSource adapts a generator to the uniform source interface.
func NewSource(gen *Generator) source.Source {
	return source.NewFunc(DatasetName, source.CadenceDaily, func(d dates.Date) *source.Frame {
		return gen.Generate(d).Frame()
	})
}
