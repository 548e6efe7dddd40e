// Package orgs models organizations and their sibling Autonomous Systems,
// and implements the (country, AS) → (country, org) aggregation of the
// paper's §3.1 ("Combining Orgs to Compare Datasets"): every dataset is
// reduced to (country, org) pairs before comparison so that sibling-AS
// bookkeeping differences between data sources cancel out.
package orgs

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Type classifies what kind of network an organization operates. The type
// determines how the org shows up in each dataset: access and mobile
// networks host users; enterprise networks host few; cloud and CDN
// networks carry traffic without hosting ad-reachable users; VPN providers
// concentrate foreign users behind locally-geolocated egress IPs.
type Type int

// Organization types.
const (
	FixedAccess Type = iota
	MobileCarrier
	ConvergedAccess // fixed + mobile under one org
	Enterprise
	CloudProvider
	CDNProvider
	VPNProvider
)

func (t Type) String() string {
	switch t {
	case FixedAccess:
		return "fixed-access"
	case MobileCarrier:
		return "mobile"
	case ConvergedAccess:
		return "converged-access"
	case Enterprise:
		return "enterprise"
	case CloudProvider:
		return "cloud"
	case CDNProvider:
		return "cdn"
	case VPNProvider:
		return "vpn"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// HostsUsers reports whether networks of this type primarily host human
// eyeballs (as opposed to servers or transit).
func (t Type) HostsUsers() bool {
	switch t {
	case FixedAccess, MobileCarrier, ConvergedAccess:
		return true
	default:
		return false
	}
}

// IsAccess reports whether the broadband-subscriber dataset would survey
// this type (it covers access networks only, §3.3).
func (t Type) IsAccess() bool {
	return t == FixedAccess || t == ConvergedAccess
}

// Org is an organization operating one or more sibling ASes.
type Org struct {
	ID   string // stable identifier, e.g. "FR-ACC-03"
	Name string // display name
	Type Type
	Home string   // home country ISO code
	ASNs []uint32 // sibling ASes, ascending
}

// CountryAS keys per-(country, AS) dataset rows.
type CountryAS struct {
	Country string
	ASN     uint32
}

// CountryOrg keys per-(country, org) dataset rows after aggregation.
type CountryOrg struct {
	Country string
	Org     string // Org.ID
}

// Registry resolves ASes to their owning organizations.
type Registry struct {
	byID  map[string]*Org
	byASN map[uint32]*Org
	ids   []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byID:  map[string]*Org{},
		byASN: map[uint32]*Org{},
	}
}

// Add registers an organization. It returns an error on duplicate org IDs
// or ASNs — sibling sets must partition the AS number space.
func (r *Registry) Add(o *Org) error {
	if o == nil || o.ID == "" {
		return fmt.Errorf("orgs: nil or unnamed org")
	}
	if _, dup := r.byID[o.ID]; dup {
		return fmt.Errorf("orgs: duplicate org ID %q", o.ID)
	}
	if len(o.ASNs) == 0 {
		return fmt.Errorf("orgs: org %q has no ASNs", o.ID)
	}
	for _, asn := range o.ASNs {
		if prev, dup := r.byASN[asn]; dup {
			return fmt.Errorf("orgs: AS%d already owned by %q", asn, prev.ID)
		}
	}
	r.byID[o.ID] = o
	for _, asn := range o.ASNs {
		r.byASN[asn] = o
	}
	// A sorted insert, not a re-sort per Add, keeps registry builds cheap.
	i, _ := slices.BinarySearch(r.ids, o.ID)
	r.ids = slices.Insert(r.ids, i, o.ID)
	return nil
}

// ByID returns the org with the given ID.
func (r *Registry) ByID(id string) (*Org, bool) {
	o, ok := r.byID[id]
	return o, ok
}

// ByASN returns the org owning the given AS.
func (r *Registry) ByASN(asn uint32) (*Org, bool) {
	o, ok := r.byASN[asn]
	return o, ok
}

// Len returns the number of registered organizations.
func (r *Registry) Len() int { return len(r.byID) }

// All returns all orgs sorted by ID.
func (r *Registry) All() []*Org {
	out := make([]*Org, 0, len(r.ids))
	for _, id := range r.ids {
		out = append(out, r.byID[id])
	}
	return out
}

// Aggregate converts a per-(country, AS) measurement into a per-
// (country, org) measurement by summing sibling ASes, the paper's §3.1
// normalization. ASes not present in the registry are aggregated under a
// synthetic org ID "AS<asn>" so that unattributed measurements are kept
// visible rather than silently dropped.
func (r *Registry) Aggregate(byAS map[CountryAS]float64) map[CountryOrg]float64 {
	// Several ASes can fold into one org, so the += below sums floats;
	// iterate in sorted key order to keep those sums bit-reproducible.
	keys := make([]CountryAS, 0, len(byAS))
	for k := range byAS {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Country != keys[j].Country {
			return keys[i].Country < keys[j].Country
		}
		return keys[i].ASN < keys[j].ASN
	})
	out := make(map[CountryOrg]float64, len(byAS))
	for _, k := range keys {
		id := fmt.Sprintf("AS%d", k.ASN)
		if o, ok := r.byASN[k.ASN]; ok {
			id = o.ID
		}
		out[CountryOrg{Country: k.Country, Org: id}] += byAS[k]
	}
	return out
}

// CountryShares extracts one country's org→value map from a
// (country, org) keyed measurement. It scans the whole map; callers that
// ask for many countries should index it once with a CountryIndex.
func CountryShares(m map[CountryOrg]float64, country string) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		if k.Country == country {
			out[k.Org] = v
		}
	}
	return out
}

// OrgValue is one org's value in a country's row of a (country, org)
// keyed measurement.
type OrgValue[V any] struct {
	Org   string
	Value V
}

// CountryIndex is a lazily built per-country view of one (country, org)
// keyed map, for datasets that answer per-country queries many times:
// the first query groups the whole map once, later ones read one row.
// The zero value is ready to use and safe for concurrent callers; the
// indexed map must not change after the first query.
type CountryIndex[V any] struct {
	once sync.Once
	rows map[string][]OrgValue[V]
}

// Row returns country's (org, value) pairs of m, sorted by org ID. The
// slice is shared between callers: treat it as read-only.
func (ix *CountryIndex[V]) Row(m map[CountryOrg]V, country string) []OrgValue[V] {
	ix.once.Do(func() { ix.rows = groupByCountry(m) })
	return ix.rows[country]
}

// groupByCountry splits m into per-country rows sorted by org ID, all
// backed by one array.
func groupByCountry[V any](m map[CountryOrg]V) map[string][]OrgValue[V] {
	sizes := make(map[string]int, 256)
	for k := range m {
		sizes[k.Country]++
	}
	backing := make([]OrgValue[V], len(m))
	rows := make(map[string][]OrgValue[V], len(sizes))
	off := 0
	for cc, n := range sizes {
		rows[cc] = backing[off : off : off+n]
		off += n
	}
	for k, v := range m {
		rows[k.Country] = append(rows[k.Country], OrgValue[V]{Org: k.Org, Value: v})
	}
	for _, row := range rows {
		slices.SortFunc(row, func(a, b OrgValue[V]) int { return strings.Compare(a.Org, b.Org) })
	}
	return rows
}

// Copy returns country's row of m as a fresh, caller-owned org→value map
// (empty, not nil, when the country is absent).
func (ix *CountryIndex[V]) Copy(m map[CountryOrg]V, country string) map[string]V {
	row := ix.Row(m, country)
	out := make(map[string]V, len(row))
	for _, ov := range row {
		out[ov.Org] = ov.Value
	}
	return out
}

// SortedPairs returns m's keys sorted by country, then org: the row order
// of every (country, org) keyed frame, and the iteration order that keeps
// float sums over such maps bit-reproducible.
func SortedPairs[V any](m map[CountryOrg]V) []CountryOrg {
	out := make([]CountryOrg, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.SortFunc(out, func(a, b CountryOrg) int {
		if c := strings.Compare(a.Country, b.Country); c != 0 {
			return c
		}
		return strings.Compare(a.Org, b.Org)
	})
	return out
}
