package world

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/geo"
	"repro/internal/orgs"
	"repro/internal/rng"
)

// buildMarket creates one country's organization market: a Zipf-like body
// of eyeball networks, a long tail of tiny networks, plus enterprise,
// cloud and CDN orgs. Weights, types and per-org parameters all come from
// the country's dedicated random stream.
func (w *World) buildMarket(c geo.Country, s *rng.Stream) (*Market, error) {
	m := &Market{Country: c}
	users24 := c.InternetUsers(lastYear)
	if users24 < 1 {
		users24 = 1
	}

	// Eyeball networks: count grows with the user base, the market body
	// follows a Zipf law.
	nEyeball := int(2.5*math.Log10(users24)) - 8
	if nEyeball < 3 {
		nEyeball = 3
	}
	if nEyeball > 26 {
		nEyeball = 26
	}
	nEyeball += s.Intn(3)

	// Market steepness varies by country: some markets are dominated by
	// one incumbent (high alpha), mature telecom markets often have
	// three or four near-equal players (low alpha) — which is exactly
	// where survey-vs-APNIC rank inversions can turn Figure 2's per-
	// country R² negative.
	zipfAlpha := s.Range(0.55, 1.25)
	for k := 0; k < nEyeball; k++ {
		typ := w.eyeballType(s, k)
		e := w.newEntry(c, s, typ, k,
			1/math.Pow(float64(k+1), zipfAlpha))
		m.Entries = append(m.Entries, e)
	}

	// Long tail of tiny networks (regional ISPs, WISPs): these are the
	// pairs the CDN observes but APNIC's ≥120-sample floor drops (§4.2).
	nTiny := 12 + s.Intn(22)
	for k := 0; k < nTiny; k++ {
		weight := math.Pow(10, s.Range(-5, -3.4))
		e := w.newEntry(c, s, orgs.FixedAccess, 100+k, weight)
		m.Entries = append(m.Entries, e)
	}

	// Enterprise networks: present everywhere, few users, modest traffic.
	nEnt := 1 + s.Intn(3)
	for k := 0; k < nEnt; k++ {
		e := w.newEntry(c, s, orgs.Enterprise, 200+k, s.Range(0.002, 0.006))
		m.Entries = append(m.Entries, e)
	}

	// Cloud / CDN orgs in sizable markets. Southern Asia gets a heavier
	// cloud footprint — the mechanism behind the paper's India traffic
	// outlier (§4.4): huge CDN volume, almost no ad-visible users.
	if users24 > 5e6 {
		nCloud := 1 + s.Intn(2)
		if c.Subregion == geo.SouthernAsia {
			nCloud += 2
		}
		for k := 0; k < nCloud; k++ {
			e := w.newEntry(c, s, orgs.CloudProvider, 300+k, s.Range(0.0005, 0.002))
			if c.Subregion == geo.SouthernAsia {
				e.TrafficPerUser *= 5
			}
			m.Entries = append(m.Entries, e)
		}
		if users24 > 3e7 {
			e := w.newEntry(c, s, orgs.CDNProvider, 350, s.Range(0.0003, 0.001))
			m.Entries = append(m.Entries, e)
		}
	}
	return m, nil
}

// eyeballType picks the network type for the k-th eyeball org: the top of
// the market mixes converged carriers and pure-fixed incumbents (their
// differing mobile exposure is what makes mobile-heavy carriers look
// overrepresented against fixed-only broadband surveys, Figure 2), the
// middle adds mobile carriers, the tail is mostly fixed.
func (w *World) eyeballType(s *rng.Stream, k int) orgs.Type {
	switch {
	case k < 2:
		if s.Bool(0.35) {
			return orgs.FixedAccess
		}
		return orgs.ConvergedAccess
	case k < 5:
		switch s.Intn(3) {
		case 0:
			return orgs.MobileCarrier
		case 1:
			return orgs.FixedAccess
		default:
			return orgs.ConvergedAccess
		}
	default:
		if s.Bool(0.2) {
			return orgs.MobileCarrier
		}
		return orgs.FixedAccess
	}
}

// newEntry creates an org plus its market entry with all per-org
// simulation parameters.
func (w *World) newEntry(c geo.Country, s *rng.Stream, typ orgs.Type, idx int, weight float64) *Entry {
	nASN := 1
	if typ.HostsUsers() && idx < 5 {
		nASN = 1 + s.Intn(4) // big carriers run sibling ASes
	} else if s.Bool(0.2) {
		nASN = 2
	}
	asns := make([]uint32, nASN)
	for i := range asns {
		asns[i] = w.nextASN
		w.nextASN++
	}
	id := fmt.Sprintf("%s-%s-%02d", c.Code, typeTag(typ), idx)
	o := &orgs.Org{
		ID:   id,
		Name: orgName(c.Code, typ, idx, s),
		Type: typ,
		Home: c.Code,
		ASNs: asns,
	}
	if err := w.Registry.Add(o); err != nil {
		// Construction is fully controlled; a duplicate here is a bug.
		panic(err)
	}

	asnW := make([]float64, nASN)
	total := 0.0
	for i := range asnW {
		asnW[i] = s.Range(0.5, 1.5)
		total += asnW[i]
	}
	for i := range asnW {
		asnW[i] /= total
	}

	e := &Entry{
		Org:        o,
		Key:        rng.KeyString(id),
		BaseWeight: weight,
		EntryYear:  0,
		ASNWeights: asnW,
	}

	// Per-type parameters.
	switch typ {
	case orgs.FixedAccess:
		e.MobileShare = s.Range(0, 0.1)
		e.AdFactor = s.Range(0.95, 1.05)
		e.TrafficPerUser = s.LogNormal(0, 0.14)
		e.ReqPerUser = 80 * s.LogNormal(0, 0.10)
		e.BotShare = s.Range(0.05, 0.12)
	case orgs.MobileCarrier:
		e.MobileShare = s.Range(0.9, 1.0)
		e.AdFactor = s.Range(1.0, 1.15) // mobile browsing sees more ads
		e.TrafficPerUser = 0.7 * s.LogNormal(0, 0.14)
		e.ReqPerUser = 70 * s.LogNormal(0, 0.10)
		e.BotShare = s.Range(0.03, 0.08)
	case orgs.ConvergedAccess:
		e.MobileShare = s.Range(0.25, 0.85)
		e.AdFactor = s.Range(0.95, 1.1)
		e.TrafficPerUser = 0.9 * s.LogNormal(0, 0.14)
		e.ReqPerUser = 80 * s.LogNormal(0, 0.10)
		e.BotShare = s.Range(0.04, 0.1)
	case orgs.Enterprise:
		e.MobileShare = s.Range(0.05, 0.2)
		e.AdFactor = s.Range(0.15, 0.35) // workplace browsing, fewer ads
		e.TrafficPerUser = 0.4 * s.LogNormal(0, 0.4)
		e.ReqPerUser = 25 * s.LogNormal(0, 0.3)
		e.BotShare = s.Range(0.15, 0.35)
	case orgs.CloudProvider:
		e.MobileShare = 0
		e.AdFactor = s.Range(0.01, 0.04) // machines do not watch ads
		e.TrafficPerUser = 40 * s.LogNormal(0, 0.5)
		e.ReqPerUser = 400 * s.LogNormal(0, 0.4)
		e.BotShare = s.Range(0.4, 0.6)
	case orgs.CDNProvider:
		e.MobileShare = 0
		e.AdFactor = s.Range(0.01, 0.03)
		e.TrafficPerUser = 25 * s.LogNormal(0, 0.5)
		e.ReqPerUser = 300 * s.LogNormal(0, 0.4)
		e.BotShare = s.Range(0.3, 0.5)
	case orgs.VPNProvider:
		e.MobileShare = s.Range(0.2, 0.4)
		e.AdFactor = 1.0
		e.TrafficPerUser = s.LogNormal(0, 0.3)
		e.ReqPerUser = 45 * s.LogNormal(0, 0.25)
		e.BotShare = s.Range(0.1, 0.25)
	}
	e.UAPerUser = s.Range(1.15, 1.45)

	// Persistent APNIC sampling bias: the weaker Google's local
	// ecosystem, the wilder the per-org distortion (§4.1, §4.4). The
	// superlinear exponent keeps high-reach countries nearly clean while
	// low-reach markets (Russia, Korea's Naver-dominated web, Brazil)
	// get rank-scrambling distortions.
	biasSigma := 0.08 + 1.1*math.Pow(1-c.AdReach, 1.3)
	e.APNICBias = s.LogNormal(0, biasSigma)

	// Proxy effect: where Google's ecosystem is weak, a disproportionate
	// share of the ad impressions that *do* arrive come through cloud /
	// relay infrastructure. This is the paper's Russia anomaly (§4.4): a
	// minor cloud org that APNIC ranks among the largest "networks"
	// globally while the CDN sees almost no users there.
	if (typ == orgs.CloudProvider || typ == orgs.CDNProvider) && c.AdReach < 0.45 {
		e.AdFactor = s.Range(50, 150)
	}

	// CDN affinity: how much of the org's activity the CDN observes.
	e.CDNAffinity = clamp01(s.Range(0.75, 0.95))
	if c.Freedom < 30 && c.Freedom > 0 && s.Bool(0.25) {
		// Some networks in censored countries barely reach the CDN at
		// all — these become APNIC-only (country, org) pairs (§4.2).
		e.CDNAffinity *= 0.002
	}
	return e
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func typeTag(t orgs.Type) string {
	switch t {
	case orgs.FixedAccess:
		return "FIX"
	case orgs.MobileCarrier:
		return "MOB"
	case orgs.ConvergedAccess:
		return "CNV"
	case orgs.Enterprise:
		return "ENT"
	case orgs.CloudProvider:
		return "CLD"
	case orgs.CDNProvider:
		return "CDN"
	case orgs.VPNProvider:
		return "VPN"
	default:
		return "ORG"
	}
}

// applyMergers injects the §6 market events: a probabilistic wave of
// European and African consolidation with scenario overrides pinning
// specific markets (the paper's guaranteed Sunrise+UPC and
// Vodafone+Unitymedia events are scenario.Paper()'s CH and DE overrides),
// and the Latin-American entry of new access networks after 2019.
//
// The draw sequence is pinned: within each country's stream the wave year
// is drawn before any override applies, then the Bool(prob) gate, then
// mergeOne's victim pick. Overrides for countries outside the European
// wave run on a dedicated child split, which never advances the parent —
// both properties keep the paper scenario byte-identical to the old
// hard-coded code path.
func (w *World) applyMergers(s *rng.Stream) {
	forced := w.shocks.Mergers()
	for _, code := range w.codes {
		m := w.markets[code]
		region := m.Country.Subregion
		cs := s.Split("country/" + code)

		inEuropeanWave := false
		switch geo.ContinentOf(region) {
		case geo.Europe:
			inEuropeanWave = true
			prob := 0.35
			year := 2019 + cs.Intn(4)
			if ov, ok := forced[code]; ok {
				prob, year = ov.Probability, ov.Year
			}
			if cs.Bool(prob) {
				w.mergeOne(m, cs, year)
			}
		case geo.Africa:
			if cs.Bool(0.30) {
				w.mergeOne(m, cs, 2019+cs.Intn(5))
			}
		}
		if ov, ok := forced[code]; ok && !inEuropeanWave {
			ms := cs.Split("scenario-merger")
			if ms.Bool(ov.Probability) {
				w.mergeOne(m, ms, ov.Year)
			}
		}

		// Latin America: a wave of new access networks enters after
		// 2019, strongly diversifying the market (§6 reports the number
		// of orgs needed for 95% coverage growing by up to +300%).
		if region == geo.SouthAmer || region == geo.CentralAmerica || region == geo.Caribbean {
			nNew := 8 + cs.Intn(8)
			for k := 0; k < nNew; k++ {
				e := w.newEntry(m.Country, cs.Split(fmt.Sprintf("entrant/%d", k)), orgs.FixedAccess, 400+k, math.Pow(10, cs.Range(-2.2, -1.1)))
				e.EntryYear = 2019 + cs.Intn(5)
				m.Entries = append(m.Entries, e)
			}
		}
	}
}

// mergeOne absorbs a mid-market eyeball org into the market leader in the
// given year.
func (w *World) mergeOne(m *Market, s *rng.Stream, year int) {
	var eyeballs []*Entry
	for _, e := range m.Entries {
		if e.Org.Type.HostsUsers() && e.ExitYear == 0 {
			eyeballs = append(eyeballs, e)
		}
	}
	if len(eyeballs) < 4 {
		return
	}
	sort.Slice(eyeballs, func(i, j int) bool { return eyeballs[i].BaseWeight > eyeballs[j].BaseWeight })
	victim := eyeballs[1+s.Intn(3)] // one of ranks 2..4
	victim.ExitYear = year
	victim.AbsorbedBy = eyeballs[0].Org.ID
}

// applyEntrants injects the scenario's new-entrant orgs: one org per
// event, home-registered, with a market entry in the home country and in
// each listed presence country. Per-country parameters derive from the
// entrant's own stream, so scenarios with no entrants (the paper) consume
// zero draws here.
func (w *World) applyEntrants(s *rng.Stream) error {
	for _, ev := range w.shocks.Entrants() {
		es := s.Split("entrant/" + ev.Name)
		nASN := 1 + es.Intn(3)
		asns := make([]uint32, nASN)
		for i := range asns {
			asns[i] = w.nextASN
			w.nextASN++
		}
		o := &orgs.Org{
			ID:   ev.Name,
			Name: ev.Name,
			Type: orgs.ConvergedAccess,
			Home: ev.Home,
			ASNs: asns,
		}
		if err := w.Registry.Add(o); err != nil {
			return fmt.Errorf("world: scenario entrant %s: %w", ev.Name, err)
		}
		presence := append([]string{ev.Home}, ev.Countries...)
		for _, cc := range presence {
			m := w.markets[cc]
			if m == nil {
				return fmt.Errorf("world: scenario entrant %s: no market for %s", ev.Name, cc)
			}
			cs := es.Split("cc/" + cc)
			asnW := make([]float64, nASN)
			total := 0.0
			for i := range asnW {
				asnW[i] = cs.Range(0.5, 1.5)
				total += asnW[i]
			}
			for i := range asnW {
				asnW[i] /= total
			}
			e := &Entry{
				Org:            o,
				Key:            rng.KeyString(o.ID),
				BaseWeight:     ev.Weight,
				EntryYear:      ev.EntryYear,
				MobileShare:    ev.MobileShare,
				AdFactor:       cs.Range(0.95, 1.05),
				TrafficPerUser: cs.LogNormal(0, 0.14),
				ReqPerUser:     80 * cs.LogNormal(0, 0.10),
				UAPerUser:      cs.Range(1.15, 1.45),
				BotShare:       cs.Range(0.04, 0.1),
				CDNAffinity:    clamp01(cs.Range(0.75, 0.95)),
				ASNWeights:     asnW,
			}
			biasSigma := 0.08 + 1.1*math.Pow(1-m.Country.AdReach, 1.3)
			e.APNICBias = cs.LogNormal(0, biasSigma)
			m.Entries = append(m.Entries, e)
			if cc != ev.Home {
				w.entrantAway = append(w.entrantAway, entrantPresence{country: cc, entry: e})
			}
		}
	}
	return nil
}

// buildVPN creates the Norway-style VPN provider whose egress IPs
// geolocate to the hub while its users are spread across other countries.
func (w *World) buildVPN(s *rng.Stream) {
	var hub *Market
	for _, code := range w.codes {
		if w.markets[code].Country.VPNHub {
			hub = w.markets[code]
			break
		}
	}
	if hub == nil {
		return
	}
	e := w.newEntry(hub.Country, s, orgs.VPNProvider, 0, 0.004)
	hub.Entries = append(hub.Entries, e)
	w.VPNOrgID = e.Org.ID

	// Origin mix of the funneled users.
	origins := []string{"DE", "GB", "US", "FR", "SE", "DK", "NL", "PL", "FI", "RU"}
	total := 0.0
	weights := make([]float64, len(origins))
	for i := range origins {
		weights[i] = s.Range(0.5, 1.5)
		total += weights[i]
	}
	for i, o := range origins {
		if _, ok := w.markets[o]; ok {
			w.vpnOrigin[o] = weights[i] / total
		}
	}
}

// consolidationGamma returns the market-concentration exponent for a
// region and year: shares evolve as BaseWeight^gamma, so gamma > 1
// concentrates the market and gamma < 1 diversifies it. The anchors
// encode §6's observations (2019 as baseline; Latin America diversifies,
// Southern Asia concentrates hard, Europe and Africa consolidate).
func consolidationGamma(region geo.Subregion, year int) float64 {
	g2013, g2019 := 0.94, 1.0
	var g2024 float64
	switch region {
	case geo.SouthAmer, geo.CentralAmerica, geo.Caribbean:
		g2024 = 0.62
	case geo.SouthernAsia:
		g2024 = 1.85
	case geo.EasternEurope, geo.SouthernEurope, geo.NorthernEurope, geo.WesternEurope:
		g2024 = 1.28
	case geo.EasternAfrica, geo.SouthernAfrica, geo.NorthernAfrica, geo.OtherAfrica:
		g2024 = 1.32
	case geo.SouthEastAsia:
		g2024 = 1.22
	case geo.EasternAsia, geo.OtherAsia:
		g2024 = 1.15
	case geo.AustraliaNZ:
		g2024 = 1.12
	default:
		g2024 = 1.04
	}
	switch {
	case year <= 2013:
		return g2013
	case year <= 2019:
		f := float64(year-2013) / 6
		return g2013 + f*(g2019-g2013)
	case year >= 2024:
		return g2024
	default:
		f := float64(year-2019) / 5
		return g2019 + f*(g2024-g2019)
	}
}

// computeShares fills every entry's dense Jan-1 share slice for
// firstYear..lastYear+1 (one backing array per market). Orgs occupy
// slots in sorted ID order, which fixes the float summation order.
func (w *World) computeShares(m *Market) {
	ids := make([]string, 0, len(m.Entries))
	for _, e := range m.Entries {
		ids = append(ids, e.Org.ID)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	slotOf := func(id string) int {
		if i, ok := slices.BinarySearch(ids, id); ok {
			return i
		}
		return -1
	}
	slot := make([]int, len(m.Entries))     // entry → its org's slot
	absorber := make([]int, len(m.Entries)) // entry → AbsorbedBy's slot, or -1
	for i, e := range m.Entries {
		slot[i] = slotOf(e.Org.ID)
		absorber[i] = -1
		if e.AbsorbedBy != "" {
			absorber[i] = slotOf(e.AbsorbedBy)
		}
	}

	n := lastYear + 2 - firstYear
	buf := make([]float64, n*len(m.Entries))
	for i, e := range m.Entries {
		e.shares = buf[i*n : (i+1)*n : (i+1)*n]
	}
	eff := make([]float64, len(ids))
	active := make([]bool, len(ids))
	eyeball := make([]bool, len(ids))
	for y := firstYear; y <= lastYear+1; y++ {
		gamma := consolidationGamma(m.Country.Subregion, y)
		clear(eff)
		clear(active)
		// Effective weight: active orgs plus mass inherited from
		// absorbed orgs.
		for i, e := range m.Entries {
			if !activeIn(e, y) {
				continue
			}
			eff[slot[i]] += e.BaseWeight
			active[slot[i]] = true
			eyeball[slot[i]] = e.Org.Type.HostsUsers()
		}
		for i, e := range m.Entries {
			if e.ExitYear != 0 && y >= e.ExitYear && absorber[i] >= 0 && active[absorber[i]] {
				eff[absorber[i]] += e.BaseWeight
			}
		}
		total := 0.0
		for k := range eff {
			if !active[k] {
				continue
			}
			if eyeball[k] {
				// The consolidation tilt models the *access-market*
				// dynamics of §6; enterprise, cloud, CDN and VPN orgs
				// keep their base weight.
				eff[k] = math.Pow(eff[k], gamma)
			}
			total += eff[k]
		}
		for i, e := range m.Entries {
			v := 0.0 // inactive orgs hold no share
			if active[slot[i]] {
				v = eff[slot[i]]
				if total > 0 {
					v /= total
				}
			}
			e.shares[y-firstYear] = v
		}
	}
}

func activeIn(e *Entry, year int) bool {
	if e.EntryYear != 0 && year < e.EntryYear {
		return false
	}
	if e.ExitYear != 0 && year >= e.ExitYear {
		return false
	}
	return true
}

// yearIndex maps a year to its index in the entries' share slices,
// clamped to firstYear..lastYear+1.
func yearIndex(year int) int {
	return min(max(year, firstYear), lastYear+1) - firstYear
}
