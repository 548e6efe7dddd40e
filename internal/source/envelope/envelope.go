// Package envelope is the container both binary frame codecs share.
// binfmt (.bin) and framez (.binz) differ only in their magic and in how
// a column's cells are laid out; everything around the columns is this
// one format (all fixed-width integers little-endian):
//
//	magic     4 bytes  the codec's own; 0xFB/0xFC keep it out of text space
//	version   u16      1
//	flags     u16      0 (reserved; decoders reject nonzero)
//	source    str      u32 length + bytes
//	day       i64      dates.Date.DayNumber(), within ±MaxDay
//	metaN     u32      then metaN × (str key, str value), in order
//	rows      u32
//	colN      u32
//	colN × column      the codec's column layout, opening with the name str
//	crc       u32      CRC-32C (Castagnoli) of every byte before it
//
// Decoding trusts nothing before it is checked: length, magic and the
// checksum first, then version and flags, then every count against the
// bytes that could back it, so a hostile header is rejected before it
// can provoke a large allocation.
package envelope

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"unsafe"

	"repro/internal/dates"
	"repro/internal/source"
)

// MaxDay bounds the day number in either direction (±~27k years): far
// beyond any dataset-day, near enough to keep a hostile header honest.
const MaxDay = 10_000_000

// TrailerSize is the length of the checksum Seal appends.
const TrailerSize = 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var le = binary.LittleEndian

// Format is one codec's instance of the container.
type Format struct {
	// Name prefixes every error, as in "binfmt: corrupt frame: …".
	Name    string
	Magic   [4]byte
	Version uint16
	// MinColumn is the fewest bytes one column takes on the wire. Open
	// bounds the column count by it, so decoders can allocate per
	// column before reading the columns.
	MinColumn int
	// Copy makes Reader.Str copy strings out of the input, so a decoded
	// frame never aliases it. Without it, strings alias the input.
	Copy bool
}

// Check reports whether the container can carry f: f passes
// source.Frame.Check and its day lies within ±MaxDay.
func (fm *Format) Check(f *source.Frame) error {
	if err := f.Check(); err != nil {
		return err
	}
	if d := f.Date.DayNumber(); d > MaxDay || d < -MaxDay {
		return fmt.Errorf("%s: day number %d out of range", fm.Name, d)
	}
	return nil
}

// HeaderSize returns the number of bytes AppendHeader writes for f.
func HeaderSize(f *source.Frame) int {
	n := 4 + 2 + 2 + 4 + len(f.Source) + 8 + 4
	for _, kv := range f.Meta {
		n += 4 + len(kv[0]) + 4 + len(kv[1])
	}
	return n + 4 + 4
}

// AppendHeader appends everything before f's first column.
func (fm *Format) AppendHeader(buf []byte, f *source.Frame) []byte {
	buf = append(buf, fm.Magic[:]...)
	buf = le.AppendUint16(buf, fm.Version)
	buf = le.AppendUint16(buf, 0) // flags
	buf = AppendStr(buf, f.Source)
	buf = le.AppendUint64(buf, uint64(int64(f.Date.DayNumber())))
	buf = le.AppendUint32(buf, uint32(len(f.Meta)))
	for _, kv := range f.Meta {
		buf = AppendStr(buf, kv[0])
		buf = AppendStr(buf, kv[1])
	}
	buf = le.AppendUint32(buf, uint32(f.Rows()))
	return le.AppendUint32(buf, uint32(len(f.Cols)))
}

// AppendStr appends s with its u32 length prefix.
func AppendStr(buf []byte, s string) []byte {
	buf = le.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// Seal appends the checksum of every byte in buf.
func Seal(buf []byte) []byte {
	return le.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// Corrupt returns the error for a structurally invalid frame.
func (fm *Format) Corrupt(msg string) error {
	return errors.New(fm.Name + ": corrupt frame: " + msg)
}

// Head is a decoded header: everything but the columns.
type Head struct {
	Source string
	Day    dates.Date
	Meta   [][2]string
	Rows   int
	Cols   int
}

// Open checks buf's framing (length, magic, checksum, version, flags)
// and decodes its header. The Reader it returns is positioned at the
// first column and ends before the checksum.
func (fm *Format) Open(buf []byte) (Reader, Head, error) {
	var h Head
	if len(buf) < 4+2+2+TrailerSize {
		return Reader{}, h, fm.Corrupt("shorter than the fixed header")
	}
	if [4]byte(buf[:4]) != fm.Magic {
		return Reader{}, h, fm.Corrupt("bad magic")
	}
	body := buf[:len(buf)-TrailerSize]
	if le.Uint32(buf[len(body):]) != crc32.Checksum(body, castagnoli) {
		return Reader{}, h, fm.Corrupt("checksum mismatch")
	}
	r := Reader{b: body, off: 4, fm: fm}
	if v := r.U16(); v != fm.Version {
		return r, h, fmt.Errorf("%s: unsupported version %d (have %d)", fm.Name, v, fm.Version)
	}
	if fl := r.U16(); fl != 0 {
		return r, h, fmt.Errorf("%s: unsupported flags %#x", fm.Name, fl)
	}

	h.Source = r.Str()
	day := int64(r.U64())
	if day > MaxDay || day < -MaxDay {
		return r, h, fm.Corrupt("day number out of range")
	}
	h.Day = dates.FromDayNumber(int(day))

	// Each pair costs at least two length prefixes.
	metaN := r.U32()
	if uint64(metaN)*8 > uint64(r.Remaining()) {
		return r, h, fm.Corrupt("meta count exceeds buffer")
	}
	if metaN > 0 {
		h.Meta = make([][2]string, 0, metaN)
		for i := uint32(0); i < metaN && r.err == nil; i++ {
			k := r.Str()
			v := r.Str()
			h.Meta = append(h.Meta, [2]string{k, v})
		}
	}

	rows, colN := r.U32(), r.U32()
	if uint64(colN)*uint64(fm.MinColumn) > uint64(r.Remaining()) {
		return r, h, fm.Corrupt("column count exceeds buffer")
	}
	if colN == 0 && rows != 0 {
		// Encoders derive the row count from the first column, so a
		// column-less frame claiming rows would not re-encode canonically.
		return r, h, fm.Corrupt("rows without columns")
	}
	h.Rows, h.Cols = int(rows), int(colN)
	return r, h, r.err
}

// Frame assembles the frame from the header and its decoded columns,
// and checks it.
func (h *Head) Frame(cols []*source.Column) (*source.Frame, error) {
	f := &source.Frame{Source: h.Source, Date: h.Day, Meta: h.Meta, Cols: cols}
	if err := f.Check(); err != nil {
		return nil, err
	}
	return f, nil
}

// Reader walks a byte slice with sticky-error bounds checks: after the
// first failure every read returns zero values, so a decoder reads
// linearly and checks Err once per column.
type Reader struct {
	b   []byte
	off int
	err error
	fm  *Format
}

// Reader returns a Reader over p, such as one column's payload, whose
// errors carry fm's name.
func (fm *Format) Reader(p []byte) Reader { return Reader{b: p, fm: fm} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records msg as a corruption unless an earlier failure stands.
func (r *Reader) Fail(msg string) {
	if r.err == nil {
		r.err = r.fm.Corrupt(msg)
	}
}

// Offset returns the read position.
func (r *Reader) Offset() int { return r.off }

// Remaining returns the unread byte count.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Close returns the first failure, or a corruption if bytes are left
// after the last column.
func (r *Reader) Close() error {
	if r.err == nil && r.Remaining() != 0 {
		r.Fail("trailing bytes after the last column")
	}
	return r.err
}

// Need consumes n bytes and returns them, or fails and returns nil.
func (r *Reader) Need(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.Fail("truncated")
		return nil
	}
	p := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return p
}

// U8, U16, U32 and U64 read one fixed-width integer, or fail and
// return 0.
func (r *Reader) U8() byte {
	p := r.Need(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *Reader) U16() uint16 {
	p := r.Need(2)
	if p == nil {
		return 0
	}
	return le.Uint16(p)
}

func (r *Reader) U32() uint32 {
	p := r.Need(4)
	if p == nil {
		return 0
	}
	return le.Uint32(p)
}

func (r *Reader) U64() uint64 {
	p := r.Need(8)
	if p == nil {
		return 0
	}
	return le.Uint64(p)
}

// Str reads a length-prefixed string: a copy under Format.Copy, else an
// alias of the input.
func (r *Reader) Str() string {
	p := r.Need(uint64(r.U32()))
	if r.fm.Copy {
		return string(p)
	}
	return Alias(p)
}

// Uvarint reads one minimal-length varint. A non-minimal encoding
// ("0x80 0x00" for zero) or a 64-bit overflow fails: either would
// decode to a value that re-encodes differently.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	var shift uint
	for i := r.off; i < len(r.b); i++ {
		b := r.b[i]
		if shift > 63 || shift == 63 && b > 1 {
			r.Fail("varint overflows 64 bits")
			return 0
		}
		v |= uint64(b&0x7F) << shift
		if b < 0x80 {
			if b == 0 && shift > 0 {
				r.Fail("non-minimal varint")
				return 0
			}
			r.off = i + 1
			return v
		}
		shift += 7
	}
	r.Fail("varint truncated")
	return 0
}

// Alias returns a string sharing p's bytes, without copying. The caller
// must never mutate p while the string is reachable.
func Alias(p []byte) string {
	if len(p) == 0 {
		return ""
	}
	return unsafe.String(&p[0], len(p))
}
