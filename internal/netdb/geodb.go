package netdb

import "net/netip"

// Route is the payload the simulators attach to each announced prefix.
type Route struct {
	ASN uint32 // origin AS of the announcement

	// RegisteredCountry is where the block is registered / geolocated by
	// a public MaxMind-style database. APNIC's pipeline sees this view.
	RegisteredCountry string

	// TrueCountry is where the block's human users actually are. The
	// CDN's proprietary internal geolocation resolves to this view. For
	// most blocks the two agree; for VPN egress ranges they diverge.
	TrueCountry string
}

// DB is the combined routing + geolocation database shared by the
// simulated measurement systems.
type DB struct {
	table *Table[Route]
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{table: NewTable[Route]()}
}

// Announce installs a route for prefix.
func (db *DB) Announce(p netip.Prefix, r Route) error {
	return db.table.Insert(p, r)
}

// Lookup resolves an address to its route by longest-prefix match. One
// call answers every question a measurement pipeline asks of an address:
// the origin ASN ("deriving the client IP's ASN using BGP feeds", §3.4),
// the registered country a public MaxMind-style database reports (the
// view APNIC's pipeline uses) and the true user country the CDN's
// internal geolocation resolves. ok is false for unrouted addresses.
func (db *DB) Lookup(addr netip.Addr) (Route, bool) {
	r, _, ok := db.table.Lookup(addr)
	return r, ok
}

// Len returns the number of announced prefixes.
func (db *DB) Len() int { return db.table.Len() }

// Walk visits all announced routes in address order.
func (db *DB) Walk(fn func(p netip.Prefix, r Route) bool) {
	db.table.Walk(fn)
}
