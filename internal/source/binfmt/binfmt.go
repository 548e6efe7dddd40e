// Package binfmt implements the binary columnar codec for source.Frame —
// the third wire representation beside CSV and JSON, negotiated over HTTP
// as application/x-frame-bin. The text codecs cost O(cells) string
// formatting on encode and O(cells) parsing plus one allocation per cell
// on decode; this codec writes each column as one contiguous typed slab
// and decodes by *aliasing* the slabs straight out of the input buffer,
// so a full dataset-day decodes with a constant number of allocations
// regardless of row count.
//
// Wire format, version 1 (all integers little-endian):
//
//	magic     4 bytes  FB 'F' 'R' 'B'   (0xFB keeps it out of text space)
//	version   u16      1
//	flags     u16      0 (reserved; decoders reject nonzero)
//	source    str      u32 length + bytes
//	day       i64      dates.Date.DayNumber()
//	metaN     u32      then metaN × (str key, str value), in order
//	rows      u32
//	colN      u32
//	colN × column:
//	  name    str
//	  kind    u8       0=str 1=int 2=float (source.Kind)
//	  pad     zeros to the next 8-byte boundary (relative to offset 0)
//	  int/float: rows × 8-byte values (int64 / IEEE-754 float64 bits)
//	  str:       (rows+1) × u32 cumulative end offsets (offsets[0] = 0,
//	             monotone nondecreasing), then offsets[rows] arena bytes
//	crc       u32      CRC-32C (Castagnoli) of every byte before it
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
	"hash/crc32"
	"io"
	"math"
	"unsafe"

	"repro/internal/dates"
	"repro/internal/source"
)

// Version is the wire-format version this package encodes.
const Version = 1

// ContentType is the media type negotiated for binary frame bodies.
const ContentType = "application/x-frame-bin"

// Suffix is the path suffix selecting the binary representation on the
// report routes, beside ".csv".
const Suffix = ".bin"

// magic opens every encoded frame; the trailing byte is the version, so
// a version bump changes the first four bytes.
var magic = [4]byte{0xFB, 'F', 'R', 'B'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

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
	n := 4 + 2 + 2 // magic, version, flags
	n += 4 + len(f.Source)
	n += 8 // day number
	n += 4
	for _, kv := range f.Meta {
		n += 4 + len(kv[0]) + 4 + len(kv[1])
	}
	n += 4 + 4 // rows, colN
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
	return n + 4 // crc
}

// pad8 returns how many zero bytes land offset n on an 8-byte boundary.
func pad8(n int) int { return (8 - n%8) % 8 }

// Encode serializes the frame into a single exactly-sized buffer.
func Encode(f *source.Frame) ([]byte, error) {
	if err := f.Check(); err != nil {
		return nil, err
	}
	buf := make([]byte, 0, Size(f))
	buf = append(buf, magic[:]...)
	buf = le.AppendUint16(buf, Version)
	buf = le.AppendUint16(buf, 0) // flags
	buf = appendStr(buf, f.Source)
	buf = le.AppendUint64(buf, uint64(int64(f.Date.DayNumber())))
	buf = le.AppendUint32(buf, uint32(len(f.Meta)))
	for _, kv := range f.Meta {
		buf = appendStr(buf, kv[0])
		buf = appendStr(buf, kv[1])
	}
	rows := f.Rows()
	buf = le.AppendUint32(buf, uint32(rows))
	buf = le.AppendUint32(buf, uint32(len(f.Cols)))
	for _, c := range f.Cols {
		buf = appendStr(buf, c.Name)
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
	buf = le.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return buf, nil
}

// Write serializes the frame to w. The body is encoded into one buffer
// first (the checksum trailer covers every preceding byte, and binary
// bodies are compact — a fraction of their CSV rendering), then written
// in a single call.
func Write(f *source.Frame, w io.Writer) error {
	buf, err := Encode(f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

func appendStr(buf []byte, s string) []byte {
	buf = le.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// corruptError reports a structurally invalid input.
type corruptError string

func (e corruptError) Error() string { return "binfmt: corrupt frame: " + string(e) }

// reader walks the buffer with sticky-error bounds checking, so the
// decode body reads linearly and checks err once per column.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(msg string) {
	if r.err == nil {
		r.err = corruptError(msg)
	}
}

// need consumes n bytes, or fails.
func (r *reader) need(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("truncated")
		return nil
	}
	p := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return p
}

func (r *reader) u8() byte {
	p := r.need(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *reader) u16() uint16 {
	p := r.need(2)
	if p == nil {
		return 0
	}
	return le.Uint16(p)
}

func (r *reader) u32() uint32 {
	p := r.need(4)
	if p == nil {
		return 0
	}
	return le.Uint32(p)
}

func (r *reader) u64() uint64 {
	p := r.need(8)
	if p == nil {
		return 0
	}
	return le.Uint64(p)
}

// str reads a length-prefixed string aliasing the buffer (no copy).
func (r *reader) str() string {
	n := r.u32()
	return aliasString(r.need(uint64(n)))
}

// pad8 consumes padding to the next 8-byte boundary, insisting it is
// zero so the encoding stays canonical (one frame, one byte form).
func (r *reader) pad8() {
	for r.off%8 != 0 {
		if r.u8() != 0 {
			r.fail("nonzero padding")
			return
		}
	}
}

// remaining returns the unconsumed byte count.
func (r *reader) remaining() uint64 { return uint64(len(r.b) - r.off) }

// aliasString returns a string sharing p's bytes. Zero allocations: the
// string header points into the decode buffer.
func aliasString(p []byte) string {
	if len(p) == 0 {
		return ""
	}
	return unsafe.String(&p[0], len(p))
}

// Decode parses an encoded frame, aliasing column data out of buf — see
// the package comment for the aliasing rules (buf must outlive the frame
// and never be mutated). It rejects truncated or corrupt input with an
// error, never a panic, and allocates O(columns), not O(cells).
func Decode(buf []byte) (*source.Frame, error) {
	if len(buf) < 4+2+2+4 {
		return nil, corruptError("shorter than the fixed header")
	}
	if [4]byte(buf[:4]) != magic {
		return nil, corruptError("bad magic")
	}
	body := buf[:len(buf)-4]
	if want := le.Uint32(buf[len(buf)-4:]); crc32.Checksum(body, castagnoli) != want {
		return nil, corruptError("checksum mismatch")
	}
	r := &reader{b: body, off: 4}
	if v := r.u16(); v != Version {
		return nil, fmt.Errorf("binfmt: unsupported version %d (have %d)", v, Version)
	}
	if fl := r.u16(); fl != 0 {
		return nil, fmt.Errorf("binfmt: unsupported flags %#x", fl)
	}

	name := r.str()
	day := int64(r.u64())
	d := dates.FromDayNumber(int(day))
	if r.err == nil && int64(d.DayNumber()) != day {
		return nil, corruptError("day number out of range")
	}

	metaN := r.u32()
	// Each pair costs at least two length prefixes; bounding metaN (and
	// rows/colN below) by what the buffer could possibly hold keeps a
	// hostile header from provoking a giant allocation before the bounds
	// checks bite.
	if uint64(metaN)*8 > r.remaining() {
		return nil, corruptError("meta count exceeds buffer")
	}
	var meta [][2]string
	if metaN > 0 {
		meta = make([][2]string, 0, metaN)
		for i := uint32(0); i < metaN && r.err == nil; i++ {
			k := r.str()
			v := r.str()
			meta = append(meta, [2]string{k, v})
		}
	}

	rows := r.u32()
	colN := r.u32()
	if uint64(colN)*5 > r.remaining() { // name prefix + kind byte minimum
		return nil, corruptError("column count exceeds buffer")
	}
	if colN == 0 && rows != 0 {
		// Encode derives the row count from the first column, so a
		// column-less frame claiming rows would not re-encode canonically.
		return nil, corruptError("rows without columns")
	}
	cols := make([]source.Column, colN)
	ptrs := make([]*source.Column, colN)
	for i := range cols {
		c := &cols[i]
		ptrs[i] = c
		c.Name = r.str()
		kind := r.u8()
		r.pad8()
		if r.err != nil {
			return nil, r.err
		}
		switch source.Kind(kind) {
		case source.Int:
			c.Kind = source.Int
			c.Ints = aliasInt64(r.need(uint64(rows)*8), int(rows))
		case source.Float:
			c.Kind = source.Float
			c.Floats = aliasFloat64(r.need(uint64(rows)*8), int(rows))
		case source.String:
			c.Kind = source.String
			c.Strs = readStrings(r, int(rows))
		default:
			return nil, corruptError(fmt.Sprintf("unknown column kind %d", kind))
		}
		if r.err != nil {
			return nil, r.err
		}
	}
	if r.remaining() != 0 {
		return nil, corruptError("trailing bytes after the last column")
	}
	f := &source.Frame{Source: name, Date: d, Meta: meta, Cols: ptrs}
	if err := f.Check(); err != nil {
		return nil, err
	}
	return f, nil
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
func readStrings(r *reader, rows int) []string {
	offs := r.need((uint64(rows) + 1) * 4)
	if offs == nil {
		return nil
	}
	if le.Uint32(offs) != 0 {
		r.fail("string offsets do not start at 0")
		return nil
	}
	arenaLen := le.Uint32(offs[4*rows:])
	arena := r.need(uint64(arenaLen))
	if arena == nil {
		return nil
	}
	if rows == 0 {
		if arenaLen != 0 {
			r.fail("arena bytes with zero rows")
		}
		return nil
	}
	out := make([]string, rows)
	prev := uint32(0)
	for i := 0; i < rows; i++ {
		end := le.Uint32(offs[4*(i+1):])
		if end < prev || end > arenaLen {
			r.fail("string offsets not monotone")
			return nil
		}
		out[i] = aliasString(arena[prev:end])
		prev = end
	}
	return out
}
