package apnic

import (
	"fmt"
	"strconv"

	"repro/internal/dates"
	"repro/internal/obsv"
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

// Source adapts the generator to the uniform source interface. Its typed
// accessor caches native reports day-keyed for the experiment lab.
type Source struct {
	gen  *Generator
	days *source.Days[*Report]
}

// NewSource wraps a generator as a registrable source whose native-report
// cache holds at most cacheDays days.
func NewSource(gen *Generator, metrics *obsv.Registry, cacheDays int) *Source {
	return &Source{
		gen:  gen,
		days: source.NewDays[*Report](metrics, "source", DatasetName, cacheDays),
	}
}

// Generator returns the wrapped generator.
func (s *Source) Generator() *Generator { return s.gen }

// Name implements source.Source.
func (s *Source) Name() string { return DatasetName }

// Window implements source.Source.
func (s *Source) Window() source.Window {
	return source.Window{First: source.SpanFirst, Last: source.SpanLast, Cadence: source.CadenceDaily}
}

// Report returns the memoized native report for a day.
func (s *Source) Report(d dates.Date) *Report {
	return s.days.Get(d, s.gen.Generate)
}

// Generate implements source.Source. It builds the frame straight from
// the generator, bypassing the native cache: the registry memoizes the
// frame itself, so a native copy would only double the resident day.
func (s *Source) Generate(d dates.Date) *source.Frame {
	return s.gen.Generate(d).Frame()
}

// CacheStats reports the native report cache's activity.
func (s *Source) CacheStats() source.CacheStats { return s.days.Stats() }
