package broadband

import (
	"fmt"
	"sort"

	"repro/internal/dates"
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
	rows := 0
	for c, row := range ds.Shares {
		ccs = append(ccs, c)
		rows += len(row)
	}
	f.Grow(rows)
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

// NewSource adapts a generator to the uniform source interface.
func NewSource(gen *Generator) source.Source {
	return source.NewFunc(DatasetName, source.CadenceSurvey, func(d dates.Date) *source.Frame {
		return gen.Generate(d).Frame()
	})
}
