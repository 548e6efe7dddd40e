package stream

import (
	"repro/internal/netdb"
	"repro/internal/orgs"
)

// Enricher resolves one raw event into an attributed impression. An
// empty reason accepts the impression; a non-empty reason (one of
// FilterReasons) drops the event and counts it.
type Enricher interface {
	Enrich(Event) (Impression, string)
}

// CDNEnricher replays the paper's §3.4 attribution on a live stream,
// with the same semantics and ordering as cdnlog.Aggregator.Add: resolve
// the client ASN by longest-prefix match (unrouted drops), map it to an
// organization (unassigned drops), geolocate with the CDN's internal
// true-country view, then apply the bot-score filter. One allocation-free
// trie lookup per event answers both the ASN and the country.
type CDNEnricher struct {
	DB           *netdb.DB
	Registry     *orgs.Registry
	BotThreshold int // drop records scoring below this (the paper keeps >= 50)
}

// Enrich resolves one record-level event.
func (e *CDNEnricher) Enrich(ev Event) (Impression, string) {
	route, _ := e.DB.Lookup(ev.Rec.Client)
	if route.ASN == 0 {
		return Impression{}, ReasonUnrouted
	}
	if _, ok := e.Registry.ByASN(route.ASN); !ok {
		return Impression{}, ReasonUnassigned
	}
	if ev.Rec.BotScore < e.BotThreshold {
		return Impression{}, ReasonBot
	}
	return Impression{
		Day:    ev.Day,
		CC:     route.TrueCountry,
		ASN:    route.ASN,
		Weight: 1,
		Bytes:  ev.Rec.Bytes,
	}, ""
}
