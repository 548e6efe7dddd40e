// Package netdb implements the IP-layer substrate both measurement systems
// in the paper sit on: an IPv4 longest-prefix-match routing trie, an
// address-block allocator, and a geolocation database with two views —
// the *registered* country (what a MaxMind-style lookup, and hence APNIC,
// sees) and the *true* client country (what the CDN's proprietary internal
// geolocation resolves). The divergence between the two views is exactly
// what produces the paper's Norway VPN outlier (§4.4).
package netdb

import (
	"fmt"
	"net/netip"
)

// Table is a binary trie keyed by IPv4 prefixes supporting longest-prefix
// match, the data structure underlying BGP FIB lookups. V is the payload
// attached to each route (an ASN, a geolocation record, ...).
type Table[V any] struct {
	root *node[V]
	n    int
}

type node[V any] struct {
	children [2]*node[V]
	hasValue bool
	value    V
	prefix   netip.Prefix
}

// NewTable returns an empty routing table.
func NewTable[V any]() *Table[V] {
	return &Table[V]{root: &node[V]{}}
}

// Len returns the number of installed prefixes.
func (t *Table[V]) Len() int { return t.n }

// bitAt returns bit i (0 = most significant) of the IPv4 address.
func bitAt(a netip.Addr, i int) int {
	b := a.As4()
	return int(b[i/8]>>(7-i%8)) & 1
}

// Insert installs value at prefix, replacing any previous value for the
// exact same prefix. It returns an error for non-IPv4 or invalid prefixes.
func (t *Table[V]) Insert(p netip.Prefix, value V) error {
	if !p.IsValid() || !p.Addr().Is4() {
		return fmt.Errorf("netdb: invalid IPv4 prefix %v", p)
	}
	p = p.Masked()
	cur := t.root
	for i := 0; i < p.Bits(); i++ {
		b := bitAt(p.Addr(), i)
		if cur.children[b] == nil {
			cur.children[b] = &node[V]{}
		}
		cur = cur.children[b]
	}
	if !cur.hasValue {
		t.n++
	}
	cur.hasValue = true
	cur.value = value
	cur.prefix = p
	return nil
}

// Lookup returns the value of the longest installed prefix containing
// addr, along with that prefix. ok is false if no prefix matches.
func (t *Table[V]) Lookup(addr netip.Addr) (value V, prefix netip.Prefix, ok bool) {
	if !addr.Is4() {
		return value, prefix, false
	}
	cur := t.root
	for i := 0; ; i++ {
		if cur.hasValue {
			value, prefix, ok = cur.value, cur.prefix, true
		}
		if i == 32 {
			return value, prefix, ok
		}
		b := bitAt(addr, i)
		if cur.children[b] == nil {
			return value, prefix, ok
		}
		cur = cur.children[b]
	}
}

// Walk visits every installed (prefix, value) pair in trie (address) order.
// The walk stops early if fn returns false.
func (t *Table[V]) Walk(fn func(p netip.Prefix, v V) bool) {
	var rec func(n *node[V]) bool
	rec = func(n *node[V]) bool {
		if n == nil {
			return true
		}
		if n.hasValue && !fn(n.prefix, n.value) {
			return false
		}
		return rec(n.children[0]) && rec(n.children[1])
	}
	rec(t.root)
}

// PrefixFromUint32 builds an IPv4 prefix from a 32-bit base address and a
// prefix length.
func PrefixFromUint32(base uint32, bits int) netip.Prefix {
	a := netip.AddrFrom4([4]byte{byte(base >> 24), byte(base >> 16), byte(base >> 8), byte(base)})
	return netip.PrefixFrom(a, bits).Masked()
}

// AddrFromUint32 converts a 32-bit value to an IPv4 address.
func AddrFromUint32(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// AddrToUint32 converts an IPv4 address to its 32-bit value.
func AddrToUint32(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
