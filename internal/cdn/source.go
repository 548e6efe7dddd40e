package cdn

import (
	"fmt"

	"repro/internal/dates"
	"repro/internal/orgs"
	"repro/internal/source"
)

// DatasetName is the registry name of the CDN log-aggregate dataset.
const DatasetName = "cdn"

// Frame converts the snapshot to the uniform columnar form, one row per
// observed (country, org) pair sorted by country then org. Lossless:
// SnapshotFromFrame reconstructs an equal snapshot.
func (s *Snapshot) Frame() *source.Frame {
	pairs := orgs.SortedPairs(s.Stats)
	f := source.NewFrame(DatasetName, s.Date)
	cc := f.AddStrings("CC")
	org := f.AddStrings("Org")
	req := f.AddInts("Sampled Requests")
	bots := f.AddInts("Filtered Bots")
	uas := f.AddFloats("User Agents")
	bytes := f.AddFloats("Bytes")
	f.Grow(len(pairs))
	for _, pair := range pairs {
		st := s.Stats[pair]
		cc.Strs = append(cc.Strs, pair.Country)
		org.Strs = append(org.Strs, pair.Org)
		req.Ints = append(req.Ints, st.SampledRequests)
		bots.Ints = append(bots.Ints, st.FilteredBots)
		uas.Floats = append(uas.Floats, st.UserAgents)
		bytes.Floats = append(bytes.Floats, st.Bytes)
	}
	return f
}

// SnapshotFromFrame reconstructs the native snapshot from its frame form.
func SnapshotFromFrame(f *source.Frame) (*Snapshot, error) {
	cc, org := f.Col("CC"), f.Col("Org")
	req, bots := f.Col("Sampled Requests"), f.Col("Filtered Bots")
	uas, bytes := f.Col("User Agents"), f.Col("Bytes")
	if cc == nil || org == nil || req == nil || bots == nil || uas == nil || bytes == nil {
		return nil, fmt.Errorf("cdn: frame is missing snapshot columns")
	}
	s := &Snapshot{Date: f.Date, Stats: make(map[orgs.CountryOrg]OrgStats, f.Rows())}
	for i := 0; i < f.Rows(); i++ {
		s.Stats[orgs.CountryOrg{Country: cc.Strs[i], Org: org.Strs[i]}] = OrgStats{
			SampledRequests: req.Ints[i],
			FilteredBots:    bots.Ints[i],
			UserAgents:      uas.Floats[i],
			Bytes:           bytes.Floats[i],
		}
	}
	return s, nil
}

// NewSource adapts a generator to the uniform source interface.
func NewSource(gen *Generator) source.Source {
	return source.NewFunc(DatasetName, source.CadenceDaily, func(d dates.Date) *source.Frame {
		return gen.Generate(d).Frame()
	})
}
