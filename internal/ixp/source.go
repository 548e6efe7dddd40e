package ixp

import (
	"fmt"

	"repro/internal/dates"
	"repro/internal/orgs"
	"repro/internal/source"
)

// DatasetName is the registry name of the IXP registry-scrape dataset.
const DatasetName = "ixp"

// Frame converts the scrape to the uniform columnar form: the union of
// publicly-registered and PNI pairs sorted by country then org, with a
// Capacity of 0 encoding "not in the public registry" (real stored
// capacities are always positive, so the encoding is lossless —
// SnapshotFromFrame reconstructs an equal snapshot).
func (s *Snapshot) Frame() *source.Frame {
	set := make(map[orgs.CountryOrg]struct{}, len(s.PNI))
	for pair := range s.Capacities {
		set[pair] = struct{}{}
	}
	for pair := range s.PNI {
		set[pair] = struct{}{}
	}
	pairs := orgs.SortedPairs(set)
	f := source.NewFrame(DatasetName, s.Date)
	cc := f.AddStrings("CC")
	org := f.AddStrings("Org")
	cap := f.AddFloats("Capacity")
	pni := f.AddFloats("PNI")
	f.Grow(len(pairs))
	for _, pair := range pairs {
		cc.Strs = append(cc.Strs, pair.Country)
		org.Strs = append(org.Strs, pair.Org)
		cap.Floats = append(cap.Floats, s.Capacities[pair])
		pni.Floats = append(pni.Floats, s.PNI[pair])
	}
	return f
}

// SnapshotFromFrame reconstructs the native scrape from its frame form.
func SnapshotFromFrame(f *source.Frame) (*Snapshot, error) {
	cc, org := f.Col("CC"), f.Col("Org")
	cap, pni := f.Col("Capacity"), f.Col("PNI")
	if cc == nil || org == nil || cap == nil || pni == nil {
		return nil, fmt.Errorf("ixp: frame is missing snapshot columns")
	}
	s := &Snapshot{
		Date:       f.Date,
		Capacities: make(map[orgs.CountryOrg]float64, f.Rows()),
		PNI:        make(map[orgs.CountryOrg]float64, f.Rows()),
	}
	for i := 0; i < f.Rows(); i++ {
		pair := orgs.CountryOrg{Country: cc.Strs[i], Org: org.Strs[i]}
		if cap.Floats[i] > 0 {
			s.Capacities[pair] = cap.Floats[i]
		}
		if pni.Floats[i] > 0 {
			s.PNI[pair] = pni.Floats[i]
		}
	}
	return s, nil
}

// NewSource adapts a generator to the uniform source interface.
func NewSource(gen *Generator) source.Source {
	return source.NewFunc(DatasetName, source.CadenceScrape, func(d dates.Date) *source.Frame {
		return gen.Generate(d).Frame()
	})
}
