package itu

import (
	"fmt"
	"sort"

	"repro/internal/dates"
	"repro/internal/source"
)

// DatasetName is the registry name of the ITU per-country estimate series.
const DatasetName = "itu"

// Table is the day-keyed native artifact of the estimator: every
// country's estimate for the week containing Date. The estimator itself
// exposes only point lookups (Users), so the table is what gives the ITU
// series a Generate-shaped entry point for the source registry.
type Table struct {
	Date  dates.Date
	Users map[string]float64 // country -> estimated Internet users
}

// Generate collects the full per-country table for the week containing d.
// Every country of the world appears, including zero-user ones, so a
// frame consumer sees the same domain as direct Users calls.
func (e *Estimator) Generate(d dates.Date) *Table {
	t := &Table{Date: d, Users: map[string]float64{}}
	for _, cc := range e.w.Countries() {
		t.Users[cc] = e.Users(cc, d)
	}
	return t
}

// Frame converts the table to the uniform columnar form, one row per
// country sorted by code. Lossless: TableFromFrame reconstructs an equal
// table.
func (t *Table) Frame() *source.Frame {
	ccs := make([]string, 0, len(t.Users))
	for cc := range t.Users {
		ccs = append(ccs, cc)
	}
	sort.Strings(ccs)
	f := source.NewFrame(DatasetName, t.Date)
	cc := f.AddStrings("CC")
	users := f.AddFloats("Users")
	f.Grow(len(ccs))
	for _, c := range ccs {
		cc.Strs = append(cc.Strs, c)
		users.Floats = append(users.Floats, t.Users[c])
	}
	return f
}

// TableFromFrame reconstructs the native table from its frame form.
func TableFromFrame(f *source.Frame) (*Table, error) {
	cc, users := f.Col("CC"), f.Col("Users")
	if cc == nil || users == nil {
		return nil, fmt.Errorf("itu: frame is missing table columns")
	}
	t := &Table{Date: f.Date, Users: make(map[string]float64, f.Rows())}
	for i := 0; i < f.Rows(); i++ {
		t.Users[cc.Strs[i]] = users.Floats[i]
	}
	return t, nil
}

// NewSource adapts an estimator to the uniform source interface: each
// day's frame is the table for the week containing it.
func NewSource(est *Estimator) source.Source {
	return source.NewFunc(DatasetName, source.CadenceWeekly, func(d dates.Date) *source.Frame {
		return est.Generate(d).Frame()
	})
}
