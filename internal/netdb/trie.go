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
//
// The trie holds no pointers: its nodes live in one slice and name their
// children by index, and a node with a route names its payload by index
// into a side slice of values. The garbage collector therefore never
// traces the nodes, and Insert allocates only when a slice grows. A
// route's prefix is not stored; it follows from the node's depth and the
// address that reached it.
type Table[V any] struct {
	nodes  []node // nodes[0] is the root
	values []V
}

type node struct {
	child [2]uint32 // index into nodes; 0 = no child (the root is nobody's child)
	val   int32     // 1 + index into values; 0 = no route here
}

// NewTable returns an empty routing table.
func NewTable[V any]() *Table[V] {
	return &Table[V]{nodes: make([]node, 1)}
}

// Len returns the number of installed prefixes.
func (t *Table[V]) Len() int { return len(t.values) }

// bit returns bit i (0 = most significant) of a 32-bit address.
func bit(a uint32, i int) uint32 { return a >> (31 - i) & 1 }

// prefixAt returns the /bits prefix containing the 32-bit address a.
func prefixAt(a uint32, bits int) netip.Prefix {
	return netip.PrefixFrom(AddrFromUint32(a&^(^uint32(0)>>bits)), bits)
}

// Insert installs value at prefix, replacing any previous value for the
// exact same prefix. It returns an error for non-IPv4 or invalid prefixes.
func (t *Table[V]) Insert(p netip.Prefix, value V) error {
	if !p.IsValid() || !p.Addr().Is4() {
		return fmt.Errorf("netdb: invalid IPv4 prefix %v", p)
	}
	a := AddrToUint32(p.Addr())
	var cur uint32
	for i := 0; i < p.Bits(); i++ {
		b := bit(a, i)
		next := t.nodes[cur].child[b]
		if next == 0 {
			next = uint32(len(t.nodes))
			t.nodes = append(t.nodes, node{})
			t.nodes[cur].child[b] = next
		}
		cur = next
	}
	if v := t.nodes[cur].val; v != 0 {
		t.values[v-1] = value
		return nil
	}
	t.values = append(t.values, value)
	t.nodes[cur].val = int32(len(t.values))
	return nil
}

// match walks the trie along a and returns the deepest route on the
// path (1 + its index into values, 0 if none) and that route's depth.
func (t *Table[V]) match(a uint32) (val int32, bits int) {
	n := &t.nodes[0]
	val = n.val
	for i := 0; i < 32; i++ {
		next := n.child[bit(a, i)]
		if next == 0 {
			break
		}
		n = &t.nodes[next]
		if n.val != 0 {
			val, bits = n.val, i+1
		}
	}
	return val, bits
}

// Lookup returns the value of the longest installed prefix containing
// addr, along with that prefix. ok is false if no prefix matches.
func (t *Table[V]) Lookup(addr netip.Addr) (value V, prefix netip.Prefix, ok bool) {
	if !addr.Is4() {
		return value, prefix, false
	}
	a := AddrToUint32(addr)
	val, bits := t.match(a)
	if val == 0 {
		return value, prefix, false
	}
	return t.values[val-1], prefixAt(a, bits), true
}

// Walk visits every installed (prefix, value) pair in trie (address)
// order: a node's own route, then its 0 subtree, then its 1 subtree.
// The walk stops early if fn returns false.
func (t *Table[V]) Walk(fn func(p netip.Prefix, v V) bool) {
	t.walk(0, 0, 0, fn)
}

// walk visits the subtree at node i, whose path spells the first depth
// bits of base.
func (t *Table[V]) walk(i, base uint32, depth int, fn func(netip.Prefix, V) bool) bool {
	n := t.nodes[i]
	if n.val != 0 && !fn(prefixAt(base, depth), t.values[n.val-1]) {
		return false
	}
	for b, c := range n.child {
		if c != 0 && !t.walk(c, base|uint32(b)<<(31-depth), depth+1, fn) {
			return false
		}
	}
	return true
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
