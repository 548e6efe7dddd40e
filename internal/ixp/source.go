package ixp

import (
	"fmt"
	"sort"

	"repro/internal/dates"
	"repro/internal/obsv"
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
	pairs := make([]orgs.CountryOrg, 0, len(set))
	for pair := range set {
		pairs = append(pairs, pair)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Country != pairs[j].Country {
			return pairs[i].Country < pairs[j].Country
		}
		return pairs[i].Org < pairs[j].Org
	})
	f := source.NewFrame(DatasetName, s.Date)
	cc := f.AddStrings("CC")
	org := f.AddStrings("Org")
	cap := f.AddFloats("Capacity")
	pni := f.AddFloats("PNI")
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

// Source adapts the generator to the uniform source interface. Its typed
// accessor caches the native scrapes day-keyed for the experiment lab.
type Source struct {
	gen  *Generator
	days *source.Days[*Snapshot]
}

// NewSource wraps a generator as a registrable source.
func NewSource(gen *Generator, metrics *obsv.Registry, cacheDays int) *Source {
	return &Source{
		gen:  gen,
		days: source.NewDays[*Snapshot](metrics, "source", DatasetName, cacheDays),
	}
}

// Generator returns the wrapped generator.
func (s *Source) Generator() *Generator { return s.gen }

// Name implements source.Source.
func (s *Source) Name() string { return DatasetName }

// Window implements source.Source.
func (s *Source) Window() source.Window {
	return source.Window{First: source.SpanFirst, Last: source.SpanLast, Cadence: source.CadenceScrape}
}

// Snapshot returns the memoized native scrape for a day.
func (s *Source) Snapshot(d dates.Date) *Snapshot {
	return s.days.Get(d, s.gen.Generate)
}

// Generate implements source.Source. It builds the frame straight from
// the generator, bypassing the native cache: the registry memoizes the
// frame itself, so a native copy would only double the resident day.
func (s *Source) Generate(d dates.Date) *source.Frame {
	return s.gen.Generate(d).Frame()
}

// CacheStats reports the native scrape cache's activity.
func (s *Source) CacheStats() source.CacheStats { return s.days.Stats() }
