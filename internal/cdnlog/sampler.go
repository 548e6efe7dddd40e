package cdnlog

import (
	"io"
	"net/netip"
	"sort"

	"repro/internal/dates"
	"repro/internal/netdb"
	"repro/internal/orgs"
	"repro/internal/rng"
	"repro/internal/ua"
	"repro/internal/world"
)

// Derivation channels for per-(pair, day) child streams: integer-tuple
// Derive keys replace the old "pair/<cc>/<org>/<date>" Split labels on
// the record-generation hot path.
const (
	chanPair uint64 = iota + 1
	chanUA
)

// Sampler synthesizes raw log records for the world's client population:
// each record's source address is drawn from the org's announced
// prefixes, its User-Agent from the ua grammar, its bot score from the
// org's bot mix. The sampler is the record-level counterpart of the
// aggregate cdn generator.
type Sampler struct {
	w    *world.World
	root *rng.Stream

	// prefixes per ASN, indexed once from the routing table.
	byASN map[uint32][]netip.Prefix
}

// NewSampler indexes the world's announced prefixes.
func NewSampler(w *world.World, seed uint64) *Sampler {
	s := &Sampler{
		w:     w,
		root:  rng.New(seed).Split("cdnlog"),
		byASN: map[uint32][]netip.Prefix{},
	}
	w.RoutingDB().Walk(func(p netip.Prefix, r netdb.Route) bool {
		s.byASN[r.ASN] = append(s.byASN[r.ASN], p)
		return true
	})
	return s
}

// addrIn draws a uniform address inside a prefix.
func addrIn(p netip.Prefix, stream *rng.Stream) netip.Addr {
	base := netdb.AddrToUint32(p.Addr())
	size := uint32(1) << (32 - p.Bits())
	off := uint32(stream.Uint64()) % size
	return netdb.AddrFromUint32(base + off)
}

// eachPairRecord synthesizes n records for one (country, org) pair on a
// day and yields each to fn, reporting false if fn stopped it early. VPN
// pairs draw addresses from the egress block registered for the
// record's true country, so the aggregator's geolocation step can be
// verified end to end. An org that announces no space yields nothing.
func (s *Sampler) eachPairRecord(pair orgs.CountryOrg, d dates.Date, n int, fn func(Record) bool) bool {
	o, ok := s.w.Registry.ByID(pair.Org)
	if !ok {
		return true
	}
	// Candidate prefixes: those of the org's ASNs whose true country is
	// the pair's country (for VPN orgs, the per-origin egress blocks).
	var prefixes []netip.Prefix
	for _, asn := range o.ASNs {
		for _, p := range s.byASN[asn] {
			r, _ := s.w.RoutingDB().Lookup(p.Addr())
			if r.TrueCountry == pair.Country {
				prefixes = append(prefixes, p)
			}
		}
	}
	if len(prefixes) == 0 {
		return true
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i].Addr().Less(prefixes[j].Addr()) })

	e := s.w.Entry(o.Home, o.ID)
	botShare := 0.1
	mobileShare := 0.3
	bytesMean := 50_000.0
	if e != nil {
		botShare = e.BotShare
		mobileShare = e.MobileShare
		bytesMean = 20_000 * e.TrafficPerUser
	}

	ccKey, orgKey := rng.KeyString(pair.Country), rng.KeyString(pair.Org)
	day := uint64(int64(d.DayNumber()))
	stream := s.root.Derive(chanPair, ccKey, orgKey, day)
	uaStream := s.root.Derive(chanUA, ccKey, orgKey, day)
	gen := ua.NewGenerator(&uaStream, mobileShare)
	for i := 0; i < n; i++ {
		p := prefixes[stream.Intn(len(prefixes))]
		rec := Record{
			Client: addrIn(p, &stream),
			Bytes:  int64(stream.LogNormal(0, 0.8) * bytesMean),
		}
		if stream.Bool(botShare) {
			rec.UserAgent = gen.GenerateBot()
			rec.BotScore = 1 + stream.Intn(45) // bots score low
		} else {
			rec.UserAgent = gen.Generate()
			rec.BotScore = 55 + stream.Intn(45) // humans score high
		}
		if !fn(rec) {
			return false
		}
	}
	return true
}

// EachDayRecord streams the records of every active pair of a country on
// a day, perOrg records each, in the same deterministic order WriteDay
// serializes them. Each record goes to fn as it is drawn; fn returning
// false stops the iteration early. This is the replayable feed behind
// the streaming pipeline's log source: the same (world, seed, country,
// day) always replays the same records.
func (s *Sampler) EachDayRecord(country string, d dates.Date, perOrg int, fn func(Record) bool) {
	m := s.w.Market(country)
	if m == nil {
		return
	}
	for _, e := range m.ActiveEntries(d) {
		if !s.eachPairRecord(orgs.CountryOrg{Country: country, Org: e.Org.ID}, d, perOrg, fn) {
			return
		}
	}
}

// WriteDay streams records for every active pair of a country on a day,
// perOrg records each, as newline-separated log lines.
func (s *Sampler) WriteDay(w io.Writer, country string, d dates.Date, perOrg int) (written int64, err error) {
	buf := make([]byte, 0, 512)
	s.EachDayRecord(country, d, perOrg, func(rec Record) bool {
		buf = rec.Append(buf[:0])
		buf = append(buf, '\n')
		if _, werr := w.Write(buf); werr != nil {
			err = werr
			return false
		}
		written++
		return true
	})
	return written, err
}
