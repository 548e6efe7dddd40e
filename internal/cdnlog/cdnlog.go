// Package cdnlog implements the raw request-log layer beneath the
// aggregate CDN simulator: a log-record format carrying client IP,
// User-Agent, byte count and bot score; a sampler that synthesizes
// records by drawing real client addresses from the world's announced
// prefixes; and an aggregator that replays the paper's §3.4 pipeline —
// resolve the client ASN from BGP state, geolocate with the CDN's
// internal (true-country) view, drop requests scoring below the bot
// threshold, and reduce to per-(country, org) request, byte and distinct
// User-Agent counts.
//
// The aggregate cdn package generates these reductions directly for
// speed; this package exists so the attribution semantics — longest-
// prefix-match ASN resolution, VPN egress re-geolocation, sibling-AS
// merging — are exercised end to end at the record level.
package cdnlog

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"

	"repro/internal/netdb"
	"repro/internal/orgs"
)

// Record is one sampled HTTP request as logged at a CDN PoP.
type Record struct {
	Client    netip.Addr // client IP address
	Bytes     int64      // response bytes
	BotScore  int        // 1 (certain bot) .. 99 (certain human)
	UserAgent string     // raw User-Agent header
}

// fieldSep separates log fields; User-Agent is the final field and may
// contain anything except tabs and newlines.
const fieldSep = '\t'

// Append serializes the record as one log line (no trailing newline).
func (r Record) Append(buf []byte) []byte {
	buf = append(buf, r.Client.String()...)
	buf = append(buf, fieldSep)
	buf = strconv.AppendInt(buf, r.Bytes, 10)
	buf = append(buf, fieldSep)
	buf = strconv.AppendInt(buf, int64(r.BotScore), 10)
	buf = append(buf, fieldSep)
	buf = append(buf, r.UserAgent...)
	return buf
}

// String returns the log-line form.
func (r Record) String() string { return string(r.Append(nil)) }

// ParseRecord parses one log line.
func ParseRecord(line string) (Record, error) {
	var rec Record
	parts := strings.SplitN(line, string(fieldSep), 4)
	if len(parts) != 4 {
		return rec, fmt.Errorf("cdnlog: malformed record (want 4 fields, got %d)", len(parts))
	}
	addr, err := netip.ParseAddr(parts[0])
	if err != nil {
		return rec, fmt.Errorf("cdnlog: bad client address: %w", err)
	}
	bytes, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil || bytes < 0 {
		return rec, fmt.Errorf("cdnlog: bad byte count %q", parts[1])
	}
	score, err := strconv.Atoi(parts[2])
	if err != nil || score < 1 || score > 99 {
		return rec, fmt.Errorf("cdnlog: bad bot score %q", parts[2])
	}
	rec.Client = addr
	rec.Bytes = bytes
	rec.BotScore = score
	rec.UserAgent = parts[3]
	return rec, nil
}

// PairStats is the aggregator's per-(country, org) reduction.
type PairStats struct {
	Requests int64 // human-classified sampled requests
	Bytes    int64 // bytes on human-classified requests
	Bots     int64 // requests dropped by the bot filter
	uas      map[string]struct{}
}

// UserAgents returns the number of distinct User-Agent strings observed
// on human-classified requests.
func (p *PairStats) UserAgents() int { return len(p.uas) }

// Aggregator reduces a stream of records to per-(country, org) stats.
type Aggregator struct {
	db           *netdb.DB
	registry     *orgs.Registry
	botThreshold int

	stats      map[orgs.CountryOrg]*PairStats
	unrouted   int64
	unassigned int64 // routed but AS not in the org registry
}

// NewAggregator returns an aggregator using the CDN's attribution rules:
// ASN from the routing table, country from the internal true-location
// view, bot filter at the given score threshold (the paper keeps >= 50).
func NewAggregator(db *netdb.DB, registry *orgs.Registry, botThreshold int) *Aggregator {
	return &Aggregator{
		db:           db,
		registry:     registry,
		botThreshold: botThreshold,
		stats:        map[orgs.CountryOrg]*PairStats{},
	}
}

// Add processes one record. One longest-prefix match gives both the
// origin ASN and the true country; ASN 0 (no route) counts as unrouted.
func (a *Aggregator) Add(rec Record) {
	route, _ := a.db.Lookup(rec.Client)
	if route.ASN == 0 {
		a.unrouted++
		return
	}
	org, ok := a.registry.ByASN(route.ASN)
	if !ok {
		a.unassigned++
		return
	}
	key := orgs.CountryOrg{Country: route.TrueCountry, Org: org.ID}
	st := a.stats[key]
	if st == nil {
		st = &PairStats{uas: map[string]struct{}{}}
		a.stats[key] = st
	}
	if rec.BotScore < a.botThreshold {
		st.Bots++
		return
	}
	st.Requests++
	st.Bytes += rec.Bytes
	st.uas[rec.UserAgent] = struct{}{}
}

// ReadFrom consumes newline-separated log lines until EOF, skipping blank
// lines. It returns the number of parsed records and the first parse
// error encountered (parsing continues past bad lines, as a log pipeline
// must). Lines of any length are handled — a pathological User-Agent
// must not stall the feed — and a final line without a trailing newline
// still parses.
func (a *Aggregator) ReadFrom(r io.Reader) (parsed int64, firstErr error) {
	// bufio.Scanner is the obvious tool here, but its token limit turns
	// one oversized line into ErrTooLong and stops the whole scan — the
	// remaining (valid) records would be silently dropped. Read with
	// ReadSlice instead, accumulating continuation fragments, so an
	// arbitrarily long line costs at most one allocation and never
	// terminates the stream.
	br := bufio.NewReaderSize(r, 64*1024)
	var long []byte // continuation accumulator for lines longer than the buffer
	take := func(line []byte) {
		s := strings.TrimSuffix(string(line), "\n")
		s = strings.TrimSuffix(s, "\r") // scanner-compatible CRLF handling
		if s == "" {
			return
		}
		rec, err := ParseRecord(s)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		a.Add(rec)
		parsed++
	}
	for {
		frag, err := br.ReadSlice('\n')
		switch {
		case err == nil:
			if len(long) == 0 {
				take(frag)
			} else {
				long = append(long, frag...)
				take(long)
				long = long[:0]
			}
		case err == bufio.ErrBufferFull:
			long = append(long, frag...)
		case err == io.EOF:
			// Unterminated final line: parse what's left.
			if len(long) > 0 || len(frag) > 0 {
				take(append(long, frag...))
			}
			return parsed, firstErr
		default:
			if firstErr == nil {
				firstErr = err
			}
			return parsed, firstErr
		}
	}
}

// Stats returns the per-(country, org) reductions. The returned map is
// the aggregator's own state; callers must not mutate it while adding.
func (a *Aggregator) Stats() map[orgs.CountryOrg]*PairStats { return a.stats }

// Unrouted returns the number of records whose client had no route.
func (a *Aggregator) Unrouted() int64 { return a.unrouted }

// Unassigned returns the number of records routed to an unknown AS.
func (a *Aggregator) Unassigned() int64 { return a.unassigned }
