package world

// CDNUsers returns the users a true-geolocation measurement (the CDN
// pipeline) attributes to an entry on the day: true users, plus — for the
// VPN org in an *origin* country — that country's slice of the funnel.
// The hub sees only the VPN's real local users. The resolved-market-day
// tests check it against the per-call reference.
func (md *MarketDay) CDNUsers(e *Entry) float64 {
	return md.cdnUsers(e.Org.ID, e)
}
