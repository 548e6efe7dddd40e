// Package binfmt implements the binary columnar codec for source.Frame —
// the third wire representation beside CSV and JSON, negotiated over HTTP
// as application/x-frame-bin. The text codecs cost O(cells) string
// formatting on encode and O(cells) parsing plus one allocation per cell
// on decode; this codec writes each column as one contiguous typed slab
// and decodes by *aliasing* the slabs straight out of the input buffer,
// so a full dataset-day decodes with a constant number of allocations
// regardless of row count.
//
// Wire format, version 1: the container of package envelope (DESIGN.md
// §10) with magic FB 'F' 'R' 'B', whose columns are (integers
// little-endian):
//
//	colN × column:
//	  name    str
//	  kind    u8       0=str 1=int 2=float (source.Kind)
//	  pad     zeros to the next 8-byte boundary (relative to offset 0)
//	  int/float: rows × 8-byte values (int64 / IEEE-754 float64 bits)
//	  str:       (rows+1) × u32 cumulative end offsets (offsets[0] = 0,
//	             monotone nondecreasing), then offsets[rows] arena bytes
//
// The encoding is canonical: one frame has exactly one valid byte form
// (padding must be zero, offsets must start at 0), so encode∘decode is
// byte-identical and the golden test can pin version-1 bytes forever.
//
// Zero-copy aliasing rules: Decode returns a Frame whose numeric column
// slices, string cells, source name, and metadata all point into the
// input buffer. The caller must keep buf alive as long as the frame and
// must never mutate it — the frame is a read-only view, exactly like the
// frames handed out by the registry cache. Aliasing numeric slabs needs
// the slab 8-byte aligned and a little-endian host; when either fails
// (a decoder given an unaligned subslice, a big-endian machine) Decode
// transparently falls back to copying the slab — still one allocation
// per column, never one per cell.
package binfmt

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/source"
	"repro/internal/source/envelope"
)

// Version is the wire-format version this package encodes.
const Version = 1

// ContentType is the media type negotiated for binary frame bodies.
const ContentType = "application/x-frame-bin"

// Suffix is the path suffix selecting the binary representation on the
// report routes, beside ".csv".
const Suffix = ".bin"

// format is this codec's container. Header strings alias the input like
// the column cells do; the smallest column is a name prefix and a kind
// byte.
var format = envelope.Format{
	Name:      "binfmt",
	Magic:     [4]byte{0xFB, 'F', 'R', 'B'},
	Version:   Version,
	MinColumn: 5,
}

// hostLittle reports whether the host stores integers little-endian, the
// precondition for aliasing numeric slabs instead of copying them.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// le is the wire byte order.
var le = binary.LittleEndian

// Size returns the exact encoded length of the frame in bytes. Encode
// allocates once with it, and the padding math here is the same the
// encoder and decoder use, so all three agree by construction.
func Size(f *source.Frame) int {
	n := envelope.HeaderSize(f)
	rows := f.Rows()
	for _, c := range f.Cols {
		n += 4 + len(c.Name) + 1
		n += pad8(n)
		switch c.Kind {
		case source.Int, source.Float:
			n += rows * 8
		case source.String:
			n += (rows + 1) * 4
			for _, s := range c.Strs {
				n += len(s)
			}
		}
	}
	return n + envelope.TrailerSize
}

// pad8 returns how many zero bytes land offset n on an 8-byte boundary.
func pad8(n int) int { return (8 - n%8) % 8 }

// Encode serializes the frame into a single exactly-sized buffer.
func Encode(f *source.Frame) ([]byte, error) {
	if err := format.Check(f); err != nil {
		return nil, err
	}
	buf := format.AppendHeader(make([]byte, 0, Size(f)), f)
	for _, c := range f.Cols {
		buf = envelope.AppendStr(buf, c.Name)
		buf = append(buf, byte(c.Kind))
		for i := pad8(len(buf)); i > 0; i-- {
			buf = append(buf, 0)
		}
		switch c.Kind {
		case source.Int:
			for _, v := range c.Ints {
				buf = le.AppendUint64(buf, uint64(v))
			}
		case source.Float:
			for _, v := range c.Floats {
				buf = le.AppendUint64(buf, math.Float64bits(v))
			}
		case source.String:
			end := uint32(0)
			buf = le.AppendUint32(buf, 0)
			for _, s := range c.Strs {
				if uint64(end)+uint64(len(s)) > math.MaxUint32 {
					return nil, fmt.Errorf("binfmt: column %q arena exceeds 4GiB", c.Name)
				}
				end += uint32(len(s))
				buf = le.AppendUint32(buf, end)
			}
			for _, s := range c.Strs {
				buf = append(buf, s...)
			}
		default:
			return nil, fmt.Errorf("binfmt: column %q has unknown kind %d", c.Name, c.Kind)
		}
	}
	return envelope.Seal(buf), nil
}

// Decode parses an encoded frame, aliasing column data out of buf — see
// the package comment for the aliasing rules (buf must outlive the frame
// and never be mutated). It rejects truncated or corrupt input with an
// error, never a panic, and allocates O(columns), not O(cells).
func Decode(buf []byte) (*source.Frame, error) {
	r, h, err := format.Open(buf)
	if err != nil {
		return nil, err
	}
	rows := h.Rows
	cols := make([]source.Column, h.Cols)
	ptrs := make([]*source.Column, h.Cols)
	for i := range cols {
		c := &cols[i]
		ptrs[i] = c
		c.Name = r.Str()
		kind := r.U8()
		// Padding must be zero so the encoding stays canonical (one
		// frame, one byte form).
		for _, b := range r.Need(uint64(pad8(r.Offset()))) {
			if b != 0 {
				r.Fail("nonzero padding")
			}
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		switch source.Kind(kind) {
		case source.Int:
			c.Kind = source.Int
			c.Ints = aliasInt64(r.Need(uint64(rows)*8), rows)
		case source.Float:
			c.Kind = source.Float
			c.Floats = aliasFloat64(r.Need(uint64(rows)*8), rows)
		case source.String:
			c.Kind = source.String
			c.Strs = readStrings(&r, rows)
		default:
			return nil, format.Corrupt(fmt.Sprintf("unknown column kind %d", kind))
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return h.Frame(ptrs)
}

// aliasInt64 views p as rows little-endian int64s without copying when
// the slab is 8-aligned on a little-endian host, copying otherwise.
func aliasInt64(p []byte, rows int) []int64 {
	if rows == 0 || p == nil {
		return nil
	}
	if hostLittle && uintptr(unsafe.Pointer(&p[0]))%8 == 0 {
		return unsafe.Slice((*int64)(unsafe.Pointer(&p[0])), rows)
	}
	out := make([]int64, rows)
	for i := range out {
		out[i] = int64(le.Uint64(p[8*i:]))
	}
	return out
}

// aliasFloat64 is aliasInt64 for IEEE-754 slabs.
func aliasFloat64(p []byte, rows int) []float64 {
	if rows == 0 || p == nil {
		return nil
	}
	if hostLittle && uintptr(unsafe.Pointer(&p[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&p[0])), rows)
	}
	out := make([]float64, rows)
	for i := range out {
		out[i] = math.Float64frombits(le.Uint64(p[8*i:]))
	}
	return out
}

// readStrings decodes one string column: the offset slab indexes the
// arena, and every cell is an aliasing string header into it — the only
// allocation is the []string backing array itself.
func readStrings(r *envelope.Reader, rows int) []string {
	offs := r.Need((uint64(rows) + 1) * 4)
	if offs == nil {
		return nil
	}
	if le.Uint32(offs) != 0 {
		r.Fail("string offsets do not start at 0")
		return nil
	}
	arenaLen := le.Uint32(offs[4*rows:])
	arena := r.Need(uint64(arenaLen))
	if arena == nil {
		return nil
	}
	if rows == 0 {
		if arenaLen != 0 {
			r.Fail("arena bytes with zero rows")
		}
		return nil
	}
	out := make([]string, rows)
	prev := uint32(0)
	for i := 0; i < rows; i++ {
		end := le.Uint32(offs[4*(i+1):])
		if end < prev || end > arenaLen {
			r.Fail("string offsets not monotone")
			return nil
		}
		out[i] = envelope.Alias(arena[prev:end])
		prev = end
	}
	return out
}
