package cdnlog

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dates"
	"repro/internal/orgs"
	"repro/internal/rng"
	"repro/internal/world"
)

var testW = world.MustBuild(world.Config{Seed: 11})

func TestRecordRoundTrip(t *testing.T) {
	rec := Record{
		Client:    netip.MustParseAddr("192.0.2.7"),
		Bytes:     48213,
		BotScore:  88,
		UserAgent: "Mozilla/5.0 (X11; Linux x86_64) Chrome/124.0",
	}
	got, err := ParseRecord(rec.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != rec {
		t.Fatalf("round trip: %+v != %+v", got, rec)
	}
}

func TestParseRecordRejectsGarbage(t *testing.T) {
	bad := []string{
		"",
		"no-tabs-here",
		"1.2.3.4\tabc\t50\tUA",   // bad bytes
		"1.2.3.4\t100\t0\tUA",    // score out of range
		"1.2.3.4\t100\t100\tUA",  // score out of range
		"not-an-ip\t100\t50\tUA", // bad address
		"1.2.3.4\t-5\t50\tUA",    // negative bytes
		"1.2.3.4\t100\t50",       // missing UA field
	}
	for _, line := range bad {
		if _, err := ParseRecord(line); err == nil {
			t.Errorf("ParseRecord(%q) should fail", line)
		}
	}
}

// Property: every record serializes and parses back identically as long
// as the UA has no tabs or newlines.
func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(ip uint32, bytes uint32, score uint8, uaRaw string) bool {
		uaStr := strings.Map(func(r rune) rune {
			if r == '\t' || r == '\n' || r == '\r' {
				return ' '
			}
			return r
		}, uaRaw)
		rec := Record{
			Client:    netip.AddrFrom4([4]byte{byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)}),
			Bytes:     int64(bytes),
			BotScore:  int(score%99) + 1,
			UserAgent: uaStr,
		}
		got, err := ParseRecord(rec.String())
		return err == nil && got == rec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerAttribution(t *testing.T) {
	s := NewSampler(testW, 3)
	d := dates.New(2024, 4, 1)
	agg := NewAggregator(testW.DB, testW.Registry, 50)

	// Records for two French orgs must aggregate back to exactly those
	// (country, org) pairs.
	m := testW.Market("FR")
	var pairs []orgs.CountryOrg
	for _, e := range m.ActiveEntries(d)[:4] {
		pairs = append(pairs, orgs.CountryOrg{Country: "FR", Org: e.Org.ID})
	}
	perPair := 200
	for _, p := range pairs {
		recs := s.PairRecords(p, d, perPair)
		if len(recs) != perPair {
			t.Fatalf("%v: got %d records", p, len(recs))
		}
		for _, r := range recs {
			agg.Add(r)
		}
	}
	if agg.Unrouted() != 0 || agg.Unassigned() != 0 {
		t.Fatalf("unrouted=%d unassigned=%d", agg.Unrouted(), agg.Unassigned())
	}
	stats := agg.Stats()
	if len(stats) != len(pairs) {
		t.Fatalf("aggregated %d pairs, want %d: %v", len(stats), len(pairs), stats)
	}
	for _, p := range pairs {
		st, ok := stats[p]
		if !ok {
			t.Fatalf("pair %v lost in aggregation", p)
		}
		if st.Requests+st.Bots != int64(perPair) {
			t.Fatalf("%v: %d human + %d bots != %d", p, st.Requests, st.Bots, perPair)
		}
		if st.Requests == 0 || st.Bots == 0 {
			t.Errorf("%v: expected both humans (%d) and bots (%d)", p, st.Requests, st.Bots)
		}
		if st.UserAgents() == 0 || st.UserAgents() > int(st.Requests) {
			t.Errorf("%v: %d UAs over %d human requests", p, st.UserAgents(), st.Requests)
		}
		if st.Bytes <= 0 {
			t.Errorf("%v: no bytes", p)
		}
	}
}

func TestSamplerVPNGeolocation(t *testing.T) {
	// VPN records drawn for an origin country must carry addresses whose
	// registered country is the hub but true country is the origin — and
	// the aggregator must attribute them to the origin.
	s := NewSampler(testW, 3)
	d := dates.New(2024, 4, 1)
	vpn := testW.VPNOrgID
	var origin string
	for cc, share := range testW.VPNOrigins() {
		if share > 0 {
			origin = cc
			break
		}
	}
	if origin == "" {
		t.Fatal("no VPN origins")
	}
	pair := orgs.CountryOrg{Country: origin, Org: vpn}
	recs := s.PairRecords(pair, d, 50)
	if len(recs) == 0 {
		t.Fatal("no VPN records")
	}
	agg := NewAggregator(testW.DB, testW.Registry, 50)
	for _, r := range recs {
		route, ok := testW.DB.Lookup(r.Client)
		if !ok {
			t.Fatalf("VPN client %v is unrouted", r.Client)
		}
		if route.RegisteredCountry != "NO" {
			t.Fatalf("VPN client %v publicly geolocates to %q, want NO", r.Client, route.RegisteredCountry)
		}
		if route.TrueCountry != origin {
			t.Fatalf("VPN client %v truly locates to %q, want %s", r.Client, route.TrueCountry, origin)
		}
		agg.Add(r)
	}
	if _, ok := agg.Stats()[pair]; !ok {
		t.Fatalf("aggregator did not attribute VPN records to %v: %v", pair, agg.Stats())
	}
}

func TestBotThreshold(t *testing.T) {
	rec := Record{Client: firstClient(t), Bytes: 10, BotScore: 30, UserAgent: "curl/8"}
	strict := NewAggregator(testW.DB, testW.Registry, 50)
	strict.Add(rec)
	off := NewAggregator(testW.DB, testW.Registry, 0)
	off.Add(rec)

	var strictHuman, offHuman int64
	for _, st := range strict.Stats() {
		strictHuman += st.Requests
	}
	for _, st := range off.Stats() {
		offHuman += st.Requests
	}
	if strictHuman != 0 {
		t.Error("score-30 record should be filtered at threshold 50")
	}
	if offHuman != 1 {
		t.Error("threshold 0 should keep everything")
	}
}

// firstClient returns an address inside some announced prefix.
func firstClient(t *testing.T) netip.Addr {
	t.Helper()
	s := NewSampler(testW, 1)
	for _, ps := range s.byASN {
		if len(ps) > 0 {
			return addrIn(ps[0], rng.New(1))
		}
	}
	t.Fatal("no prefixes announced")
	return netip.Addr{}
}

func TestWriteDayReadFromRoundTrip(t *testing.T) {
	s := NewSampler(testW, 3)
	d := dates.New(2024, 4, 1)
	var buf bytes.Buffer
	written, err := s.WriteDay(&buf, "CH", d, 50)
	if err != nil {
		t.Fatal(err)
	}
	if written == 0 {
		t.Fatal("no records written")
	}
	agg := NewAggregator(testW.DB, testW.Registry, 50)
	parsed, err := agg.ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed != written {
		t.Fatalf("parsed %d of %d written records", parsed, written)
	}
	// Every pair must belong to Switzerland.
	for k := range agg.Stats() {
		if k.Country != "CH" {
			t.Errorf("pair %v leaked out of CH", k)
		}
	}
}

func TestReadFromSkipsBadLines(t *testing.T) {
	input := "garbage line\n" + Record{
		Client: firstClient(t), Bytes: 5, BotScore: 90, UserAgent: "x",
	}.String() + "\n\n"
	agg := NewAggregator(testW.DB, testW.Registry, 50)
	parsed, err := agg.ReadFrom(strings.NewReader(input))
	if parsed != 1 {
		t.Fatalf("parsed = %d, want 1", parsed)
	}
	if err == nil {
		t.Fatal("first parse error should be reported")
	}
}

func TestSamplerDeterministic(t *testing.T) {
	d := dates.New(2024, 4, 1)
	pair := orgs.CountryOrg{Country: "FR", Org: testW.Market("FR").Entries[0].Org.ID}
	a := NewSampler(testW, 9).PairRecords(pair, d, 20)
	b := NewSampler(testW, 9).PairRecords(pair, d, 20)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

// TestReadFromLongLines is the regression test for the scanner-limit
// bug: a pathological User-Agent far beyond any fixed token limit must
// parse, and — critically — records after it must keep flowing. The old
// bufio.Scanner implementation hit ErrTooLong and silently stopped the
// whole feed.
func TestReadFromLongLines(t *testing.T) {
	client := firstClient(t)
	hugeUA := strings.Repeat("M", 2<<20) // 2 MiB, over the old 1 MiB cap
	long := Record{Client: client, Bytes: 7, BotScore: 90, UserAgent: hugeUA}
	after := Record{Client: client, Bytes: 9, BotScore: 91, UserAgent: "tail/1.0"}

	agg := NewAggregator(testW.DB, testW.Registry, 50)
	input := long.String() + "\n" + after.String() + "\n"
	parsed, err := agg.ReadFrom(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if parsed != 2 {
		t.Fatalf("parsed = %d, want 2 (long line must not stop the feed)", parsed)
	}
	var reqs, bytesTotal int64
	for _, st := range agg.Stats() {
		reqs += st.Requests
		bytesTotal += st.Bytes
	}
	if reqs != 2 || bytesTotal != 16 {
		t.Fatalf("aggregated %d requests / %d bytes, want 2 / 16", reqs, bytesTotal)
	}
}

// TestReadFromNoTrailingNewline is the regression test for the missing
// final newline: the last record of a truncated log must still parse.
func TestReadFromNoTrailingNewline(t *testing.T) {
	client := firstClient(t)
	first := Record{Client: client, Bytes: 3, BotScore: 88, UserAgent: "a"}
	last := Record{Client: client, Bytes: 4, BotScore: 89, UserAgent: "b"}

	agg := NewAggregator(testW.DB, testW.Registry, 50)
	parsed, err := agg.ReadFrom(strings.NewReader(first.String() + "\n" + last.String()))
	if err != nil {
		t.Fatal(err)
	}
	if parsed != 2 {
		t.Fatalf("parsed = %d, want 2 (unterminated final record dropped)", parsed)
	}

	// An unterminated line longer than the read buffer parses too.
	hugeUA := strings.Repeat("U", 200_000)
	big := Record{Client: client, Bytes: 1, BotScore: 77, UserAgent: hugeUA}
	agg2 := NewAggregator(testW.DB, testW.Registry, 50)
	parsed, err = agg2.ReadFrom(strings.NewReader(big.String()))
	if err != nil || parsed != 1 {
		t.Fatalf("unterminated long line: parsed=%d err=%v", parsed, err)
	}
}

// TestReadFromOversizedGarbage: a multi-megabyte line that is not even
// a record reports a parse error but never halts the stream.
func TestReadFromOversizedGarbage(t *testing.T) {
	client := firstClient(t)
	good := Record{Client: client, Bytes: 2, BotScore: 95, UserAgent: "ok"}
	input := strings.Repeat("x", 3<<20) + "\n" + good.String() + "\n"

	agg := NewAggregator(testW.DB, testW.Registry, 50)
	parsed, err := agg.ReadFrom(strings.NewReader(input))
	if err == nil {
		t.Fatal("garbage line should surface a parse error")
	}
	if parsed != 1 {
		t.Fatalf("parsed = %d, want 1 (garbage must not stop later records)", parsed)
	}
}

// TestReadFromCRLF keeps scanner-compatible CRLF handling.
func TestReadFromCRLF(t *testing.T) {
	client := firstClient(t)
	rec := Record{Client: client, Bytes: 6, BotScore: 80, UserAgent: "win"}
	agg := NewAggregator(testW.DB, testW.Registry, 50)
	parsed, err := agg.ReadFrom(strings.NewReader(rec.String() + "\r\n"))
	if err != nil || parsed != 1 {
		t.Fatalf("CRLF record: parsed=%d err=%v", parsed, err)
	}
}
