package apnic

import (
	"fmt"
	"strconv"

	"repro/internal/dates"
	"repro/internal/source"
)

// DatasetName is the registry name of the APNIC per-AS population dataset.
const DatasetName = "apnic"

// Frame converts the report to the uniform columnar form. The columns
// mirror the public dataset's CSV layout (§3.2); the conversion is
// lossless — ReportFromFrame reconstructs an equal report.
func (r *Report) Frame() *source.Frame {
	f := source.NewFrame(DatasetName, r.Date)
	f.AddMeta("window-days", strconv.Itoa(r.Window))
	rank := f.AddInts("Rank")
	as := f.AddInts("AS")
	name := f.AddStrings("AS Name")
	cc := f.AddStrings("CC")
	users := f.AddFloats("Estimated Users")
	pctCC := f.AddFloats("% of Country")
	pctNet := f.AddFloats("% of Internet")
	samples := f.AddInts("Samples")
	f.Grow(len(r.Rows))
	for _, row := range r.Rows {
		rank.Ints = append(rank.Ints, int64(row.Rank))
		as.Ints = append(as.Ints, int64(row.ASN))
		name.Strs = append(name.Strs, row.ASName)
		cc.Strs = append(cc.Strs, row.CC)
		users.Floats = append(users.Floats, row.Users)
		pctCC.Floats = append(pctCC.Floats, row.PctCountry)
		pctNet.Floats = append(pctNet.Floats, row.PctInternet)
		samples.Ints = append(samples.Ints, row.Samples)
	}
	return f
}

// ReportFromFrame reconstructs the native report from its frame form.
func ReportFromFrame(f *source.Frame) (*Report, error) {
	wd, ok := f.MetaValue("window-days")
	if !ok {
		return nil, fmt.Errorf("apnic: frame has no window-days metadata")
	}
	window, err := strconv.Atoi(wd)
	if err != nil {
		return nil, fmt.Errorf("apnic: frame window-days: %w", err)
	}
	rank, as := f.Col("Rank"), f.Col("AS")
	name, cc := f.Col("AS Name"), f.Col("CC")
	users, pctCC, pctNet := f.Col("Estimated Users"), f.Col("% of Country"), f.Col("% of Internet")
	samples := f.Col("Samples")
	if rank == nil || as == nil || name == nil || cc == nil || users == nil || pctCC == nil || pctNet == nil || samples == nil {
		return nil, fmt.Errorf("apnic: frame is missing report columns")
	}
	r := &Report{Date: f.Date, Window: window, Rows: make([]Row, f.Rows())}
	for i := range r.Rows {
		r.Rows[i] = Row{
			Rank:        int(rank.Ints[i]),
			ASN:         uint32(as.Ints[i]),
			ASName:      name.Strs[i],
			CC:          cc.Strs[i],
			Users:       users.Floats[i],
			PctCountry:  pctCC.Floats[i],
			PctInternet: pctNet.Floats[i],
			Samples:     samples.Ints[i],
		}
	}
	return r, nil
}

// NewSource adapts a generator to the uniform source interface.
func NewSource(gen *Generator) source.Source {
	return source.NewFunc(DatasetName, source.CadenceDaily, func(d dates.Date) *source.Frame {
		return gen.Generate(d).Frame()
	})
}
