// Package framez implements the compressed binary columnar codec for
// source.Frame — the fourth wire representation beside CSV, JSON, and
// the raw binary plane (binfmt), negotiated over HTTP as
// application/x-frame-binz. Where binfmt ships each column as a raw
// 8-byte-per-cell slab, framez first applies a per-column *typed
// transform* that exploits what dataset-day columns actually look like
// (monotone ASNs, slowly-varying floats, low-cardinality strings), then
// an optional compress/flate pass, and only then frames the bytes:
//
//   - int columns: delta + zigzag + varint. Sorted key columns (ASNs,
//     day numbers) collapse to one or two bytes per cell.
//   - float columns: XOR with the previous value, byte-aligned
//     Gorilla-style packing — one control byte holding the significant
//     byte count of the XOR, then only those bytes. Repeated or
//     slowly-drifting series collapse to near one byte per cell. The
//     raw fallback stores the slab byte-plane transposed (all byte-7s,
//     then all byte-6s, ...) so the shared sign/exponent planes sit
//     contiguously where flate can see them.
//   - string columns: a sorted dictionary with front-coded entries
//     (shared-prefix length + suffix) plus one varint dictionary index
//     per row. Country-code columns cost ~one byte per cell.
//
// Each transform is only used when it beats the raw slab, and flate is
// only applied when a cheap sampled cost model says it pays: the first
// sampleLen bytes are test-compressed, and the full pass runs only when
// the sample saves at least 1/8 (then the result must actually be
// smaller). Every choice is a pure function of the column's cells, which
// keeps the format canonical: one frame has exactly one valid byte form.
//
// Canonicality is enforced, not assumed. Decode re-checks every choice
// the encoder is defined to make — varints must be minimal, dictionary
// entries strictly sorted with maximal front-coding prefixes and no
// unreferenced entries, transform tags must match the size rule, and a
// flate-tagged payload must byte-equal the deterministic re-compression
// of its inflated content. Anything else is rejected with an error
// before the frame is returned, so the fuzz oracle (accepted input
// re-encodes byte-identically) holds by construction, exactly like
// binfmt's.
//
// Wire format, version 1: the container of package envelope (DESIGN.md
// §10) with magic FC 'F' 'R' 'Z', whose columns are (integers
// little-endian):
//
//	colN × column:
//	  name    str
//	  kind    u8       0=str 1=int 2=float (source.Kind)
//	  codec   u8       low 7 bits: 0=raw 1=delta 2=xor 3=dict;
//	                   bit 0x80: payload is flate-compressed
//	  encLen  u32      payload length on the wire
//	  tLen    u32      payload length after inflation (== encLen when
//	                   the flate bit is clear)
//	  payload encLen bytes
//
// Unlike binfmt, Decode returns a self-contained frame: every column is
// reconstructed into fresh memory (transforms make aliasing the wire
// bytes impossible anyway), so the input buffer can be reused or freed
// immediately. Decoding still costs O(columns) allocations, not
// O(cells): value slices are allocated whole and string cells alias a
// per-column arena.
//
// Both directions run their column work in parallel across a worker
// pool (bounded by GOMAXPROCS). Encode's output bytes are identical at
// any worker count because assembly happens in column order after the
// workers finish; Decode walks the container sequentially, then fans
// the per-column inflate + verify + transform out, reporting the
// lowest-column-index error so failures are equally deterministic.
package framez

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/source"
	"repro/internal/source/envelope"
	"repro/internal/syncx"
)

// Version is the wire-format version this package encodes.
const Version = 1

// ContentType is the media type negotiated for compressed binary frame
// bodies.
const ContentType = "application/x-frame-binz"

// Suffix is the path suffix selecting the compressed binary
// representation on the report routes, beside ".csv" and ".bin".
const Suffix = ".binz"

// Column codec tags. The low 7 bits name the typed transform; the high
// bit marks a flate pass over the transform's output.
const (
	tagRaw   = 0 // the slab binfmt would ship (floats: byte-transposed)
	tagDelta = 1 // int: delta + zigzag + varint
	tagXor   = 2 // float: XOR-with-previous, byte-stripped
	tagDict  = 3 // string: front-coded sorted dictionary + varint indexes

	flagFlate = 0x80
)

// Cost-model constants. flateLevel trades ratio for speed on both sides
// (decode re-compresses to verify canonicality); flateMin skips bodies
// too small for flate's block overhead; sampleLen bounds the sniff the
// cost model pays before committing to a full compression pass.
const (
	flateLevel = flate.BestSpeed
	flateMin   = 64
	sampleLen  = 4096
)

// format is this codec's container. Decoded frames copy every string so
// they never alias the input; the smallest column is a name prefix, the
// kind and tag bytes, and the two lengths.
var format = envelope.Format{
	Name:      "framez",
	Magic:     [4]byte{0xFC, 'F', 'R', 'Z'},
	Version:   Version,
	MinColumn: 14,
	Copy:      true,
}

var le = binary.LittleEndian

// encodeWorkers and decodeWorkers are the column parallelism handed to
// syncx.ParallelEach (zero means GOMAXPROCS); the determinism tests pin that any value yields identical
// bytes (encode) and an identical frame or identical error (decode).
var (
	encodeWorkers = 0
	decodeWorkers = 0
)

// colEnc is one column's encoded payload, produced by the worker pool.
type colEnc struct {
	tag     byte
	tLen    int // pre-flate payload length
	payload []byte
}

// colDesc is one column's wire descriptor, collected by the container
// walk and handed to the decode worker pool.
type colDesc struct {
	kind    source.Kind
	tag     byte
	tLen    int
	payload []byte
}

// Encode serializes the frame into its canonical compressed form.
func Encode(f *source.Frame) ([]byte, error) {
	if err := format.Check(f); err != nil {
		return nil, err
	}
	encs := make([]colEnc, len(f.Cols))
	if err := encodeColumns(f.Cols, f.Rows(), encs); err != nil {
		return nil, err
	}
	n := envelope.HeaderSize(f) + envelope.TrailerSize
	for i, c := range f.Cols {
		n += 4 + len(c.Name) + 1 + 1 + 4 + 4 + len(encs[i].payload)
	}
	buf := format.AppendHeader(make([]byte, 0, n), f)
	for i, c := range f.Cols {
		e := &encs[i]
		if len(e.payload) > math.MaxUint32 || e.tLen > math.MaxUint32 {
			return nil, fmt.Errorf("framez: column %q payload exceeds 4GiB", c.Name)
		}
		buf = envelope.AppendStr(buf, c.Name)
		buf = append(buf, byte(c.Kind), e.tag)
		buf = le.AppendUint32(buf, uint32(len(e.payload)))
		buf = le.AppendUint32(buf, uint32(e.tLen))
		buf = append(buf, e.payload...)
	}
	return envelope.Seal(buf), nil
}

// encodeColumns fills encs, one worker per column up to GOMAXPROCS
// (or encodeWorkers). The first error in column order wins.
func encodeColumns(cols []*source.Column, rows int, encs []colEnc) error {
	errs := make([]error, len(cols))
	syncx.ParallelEach(len(cols), encodeWorkers, func(i int) {
		encs[i], errs[i] = encodeColumn(cols[i], rows)
	})
	return firstError(errs)
}

// firstError returns the first non-nil error in errs.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// encodeColumn applies the canonical choice rule to one column: typed
// transform when it is strictly smaller than the raw slab, then flate
// when the sampled cost model says it pays.
func encodeColumn(c *source.Column, rows int) (colEnc, error) {
	var (
		candidate []byte
		tag       byte
	)
	switch c.Kind {
	case source.Int:
		rawLen := rows * 8
		if t := sizeDeltaInts(c.Ints); t < rawLen {
			candidate = appendDeltaInts(make([]byte, 0, t), c.Ints)
			tag = tagDelta
		} else {
			candidate = rawInts(c.Ints)
			tag = tagRaw
		}
	case source.Float:
		rawLen := rows * 8
		if t := sizeXorFloats(c.Floats); t < rawLen {
			candidate = appendXorFloats(make([]byte, 0, t), c.Floats)
			tag = tagXor
		} else {
			candidate = rawFloats(c.Floats)
			tag = tagRaw
		}
	case source.String:
		arena := 0
		for _, s := range c.Strs {
			arena += len(s)
			if arena > math.MaxUint32 {
				return colEnc{}, fmt.Errorf("framez: column %q arena exceeds 4GiB", c.Name)
			}
		}
		rawLen := (rows+1)*4 + arena
		d := newDictModel(c.Strs)
		if t := d.size(); t < rawLen {
			candidate = d.append(make([]byte, 0, t))
			tag = tagDict
		} else {
			candidate = rawStrs(c.Strs, arena)
			tag = tagRaw
		}
	default:
		return colEnc{}, fmt.Errorf("framez: column %q has unknown kind %d", c.Name, c.Kind)
	}
	e := colEnc{tag: tag, tLen: len(candidate), payload: candidate}
	if len(candidate) >= flateMin && sampleWins(candidate) {
		if f := deflate(candidate); len(f) < len(candidate) {
			e.tag |= flagFlate
			e.payload = f
		}
	}
	return e, nil
}

// ---- typed transforms ----

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen returns how many bytes AppendUvarint would emit.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func sizeDeltaInts(vals []int64) int {
	n := 0
	prev := int64(0)
	for _, v := range vals {
		n += uvarintLen(zigzag(v - prev))
		prev = v
	}
	return n
}

func appendDeltaInts(dst []byte, vals []int64) []byte {
	prev := int64(0)
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, zigzag(v-prev))
		prev = v
	}
	return dst
}

// sigBytes returns the minimal byte count holding x (0 for x == 0).
func sigBytes(x uint64) int { return (64 - bits.LeadingZeros64(x) + 7) / 8 }

func sizeXorFloats(vals []float64) int {
	n := 0
	prev := uint64(0)
	for _, v := range vals {
		b := math.Float64bits(v)
		n += 1 + sigBytes(b^prev)
		prev = b
	}
	return n
}

func appendXorFloats(dst []byte, vals []float64) []byte {
	prev := uint64(0)
	for _, v := range vals {
		b := math.Float64bits(v)
		x := b ^ prev
		k := sigBytes(x)
		dst = append(dst, byte(k))
		for i := 0; i < k; i++ {
			dst = append(dst, byte(x>>(8*i)))
		}
		prev = b
	}
	return dst
}

// rawInts is the binfmt slab: rows × 8 little-endian bytes.
func rawInts(vals []int64) []byte {
	out := make([]byte, 0, len(vals)*8)
	for _, v := range vals {
		out = le.AppendUint64(out, uint64(v))
	}
	return out
}

// rawFloats stores the slab byte-plane transposed: all cells' byte 0,
// then all cells' byte 1, ... Sign and exponent bytes land contiguously,
// which is what lets the flate pass find the redundancy a row-major slab
// hides at stride 8.
func rawFloats(vals []float64) []byte {
	rows := len(vals)
	out := make([]byte, rows*8)
	for i, v := range vals {
		b := math.Float64bits(v)
		for p := 0; p < 8; p++ {
			out[p*rows+i] = byte(b >> (8 * p))
		}
	}
	return out
}

// rawStrs is the binfmt string slab: (rows+1) cumulative u32 end
// offsets, then the concatenated arena.
func rawStrs(vals []string, arena int) []byte {
	out := make([]byte, 0, (len(vals)+1)*4+arena)
	out = le.AppendUint32(out, 0)
	end := uint32(0)
	for _, s := range vals {
		end += uint32(len(s))
		out = le.AppendUint32(out, end)
	}
	for _, s := range vals {
		out = append(out, s...)
	}
	return out
}

// dictModel is the shared sorted-unique view behind both the dict size
// estimate and the dict emitter, so the two always agree.
type dictModel struct {
	entries []string // sorted unique values
	indexes []uint32 // per-row entry index
}

func newDictModel(vals []string) *dictModel {
	entries := append([]string(nil), vals...)
	sort.Strings(entries)
	u := 0
	for i, s := range entries {
		if i == 0 || s != entries[u-1] {
			entries[u] = s
			u++
		}
	}
	entries = entries[:u]
	indexes := make([]uint32, len(vals))
	for i, s := range vals {
		indexes[i] = uint32(sort.SearchStrings(entries, s))
	}
	return &dictModel{entries: entries, indexes: indexes}
}

// commonPrefixLen returns the length of the longest shared prefix.
func commonPrefixLen(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

func (d *dictModel) size() int {
	n := uvarintLen(uint64(len(d.entries)))
	prev := ""
	for _, s := range d.entries {
		p := commonPrefixLen(prev, s)
		n += uvarintLen(uint64(p)) + uvarintLen(uint64(len(s)-p)) + len(s) - p
		prev = s
	}
	for _, ix := range d.indexes {
		n += uvarintLen(uint64(ix))
	}
	return n
}

func (d *dictModel) append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(d.entries)))
	prev := ""
	for _, s := range d.entries {
		p := commonPrefixLen(prev, s)
		dst = binary.AppendUvarint(dst, uint64(p))
		dst = binary.AppendUvarint(dst, uint64(len(s)-p))
		dst = append(dst, s[p:]...)
		prev = s
	}
	for _, ix := range d.indexes {
		dst = binary.AppendUvarint(dst, uint64(ix))
	}
	return dst
}

// ---- flate cost model ----

var flateWriters = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(io.Discard, flateLevel)
	return w
}}

type inflater struct {
	br *bytes.Reader
	fr io.ReadCloser
}

var flateReaders = sync.Pool{New: func() any {
	br := bytes.NewReader(nil)
	return &inflater{br: br, fr: flate.NewReader(br).(io.ReadCloser)}
}}

// deflate compresses p at the codec's fixed level. compress/flate is
// deterministic for a fixed (input, level), which is what lets the
// decoder verify a flate-tagged payload by recompressing — and what the
// golden test pins.
func deflate(p []byte) []byte {
	var buf bytes.Buffer
	// Worst-case DEFLATE output (stored-block fallback) is the input
	// plus ~5 bytes per 64 KiB block; pre-sizing to that bound keeps the
	// whole pass at one buffer allocation.
	buf.Grow(len(p) + len(p)/255 + 64)
	w := flateWriters.Get().(*flate.Writer)
	w.Reset(&buf)
	w.Write(p) // a bytes.Buffer sink cannot fail
	w.Close()
	flateWriters.Put(w)
	return buf.Bytes()
}

// sampleWins is the sampled cost model: compress the first sampleLen
// bytes and require at least a 1/8 saving before paying for the full
// pass. Deterministic, so the decoder re-runs it to verify the flate
// bit.
func sampleWins(c []byte) bool {
	s := c
	if len(s) > sampleLen {
		s = s[:sampleLen]
	}
	return len(deflate(s))*8 <= len(s)*7
}

// maxInflated bounds how much a DEFLATE stream of encLen bytes can
// legally expand (the format's ~1032:1 ceiling, with slack), so a
// hostile tLen cannot provoke a giant allocation backed by a tiny
// input.
func maxInflated(encLen int) int { return encLen*1032 + 64 }

// inflate decompresses p, which must yield exactly tLen bytes.
func inflate(p []byte, tLen int) ([]byte, error) {
	inf := flateReaders.Get().(*inflater)
	defer flateReaders.Put(inf)
	inf.br.Reset(p)
	if err := inf.fr.(flate.Resetter).Reset(inf.br, nil); err != nil {
		return nil, err
	}
	out := make([]byte, tLen)
	if _, err := io.ReadFull(inf.fr, out); err != nil {
		return nil, format.Corrupt("flate payload shorter than its declared length")
	}
	var one [1]byte
	if n, _ := inf.fr.Read(one[:]); n != 0 {
		return nil, format.Corrupt("flate payload longer than its declared length")
	}
	return out, nil
}

// ---- decode ----

// Decode parses an encoded frame into a self-contained source.Frame. It
// rejects truncated, corrupt, or non-canonical input with an error,
// never a panic, and allocates O(columns), not O(cells). Hostile inputs
// are bounds-checked before any allocation larger than a constant
// multiple of the input size.
func Decode(buf []byte) (*source.Frame, error) {
	r, h, err := format.Open(buf)
	if err != nil {
		return nil, err
	}
	cols := make([]source.Column, h.Cols)
	ptrs := make([]*source.Column, h.Cols)
	descs := make([]colDesc, h.Cols)
	for i := range cols {
		c := &cols[i]
		ptrs[i] = c
		c.Name = r.Str()
		kind := r.U8()
		tag := r.U8()
		encLen := r.U32()
		tLen := r.U32()
		payload := r.Need(uint64(encLen))
		if err := r.Err(); err != nil {
			return nil, err
		}
		descs[i] = colDesc{kind: source.Kind(kind), tag: tag, tLen: int(tLen), payload: payload}
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	if err := decodeColumns(cols, descs, h.Rows); err != nil {
		return nil, err
	}
	return h.Frame(ptrs)
}

// decodeColumns reconstructs every column, one worker per column up to
// GOMAXPROCS. Column payloads decode independently — and decode's cost
// is dominated by the per-column canonicality work (re-deflating
// flate-tagged payloads to verify them) — so fanning out recovers on
// multi-core what the verification spends. The container walk stays
// sequential; only the payload decode parallelizes. The result is
// worker-count independent: columns land in their own slots, and the
// first error in column order wins.
func decodeColumns(cols []source.Column, descs []colDesc, rows int) error {
	errs := make([]error, len(cols))
	syncx.ParallelEach(len(cols), decodeWorkers, func(i int) {
		d := &descs[i]
		errs[i] = decodeColumn(&cols[i], d.kind, d.tag, d.payload, d.tLen, rows)
	})
	return firstError(errs)
}

// decodeColumn reconstructs one column and verifies every canonical
// choice: the flate bit against the sampled cost model, and the
// transform tag against the size rule.
func decodeColumn(c *source.Column, kind source.Kind, tag byte, payload []byte, tLen, rows int) error {
	base := tag &^ flagFlate
	flated := tag&flagFlate != 0

	var cand []byte
	if flated {
		if tLen < flateMin {
			return format.Corrupt("flate bit on a payload below the size floor")
		}
		if tLen > maxInflated(len(payload)) {
			return format.Corrupt("inflated length exceeds the flate expansion bound")
		}
		var err error
		if cand, err = inflate(payload, tLen); err != nil {
			return err
		}
	} else {
		if tLen != len(payload) {
			return format.Corrupt("declared length disagrees with payload size")
		}
		cand = payload
	}

	var rawLen int
	switch kind {
	case source.Int:
		c.Kind = source.Int
		rawLen = rows * 8
		switch base {
		case tagRaw:
			if len(cand) != rawLen {
				return format.Corrupt("raw int slab has the wrong size")
			}
			c.Ints = make([]int64, rows)
			for i := range c.Ints {
				c.Ints[i] = int64(le.Uint64(cand[8*i:]))
			}
		case tagDelta:
			if rows > len(cand) {
				return format.Corrupt("more rows than delta payload bytes")
			}
			p := format.Reader(cand)
			c.Ints = make([]int64, rows)
			prev := int64(0)
			for i := range c.Ints {
				prev += unzigzag(p.Uvarint())
				c.Ints[i] = prev
			}
			if p.Err() != nil {
				return p.Err()
			}
			if p.Remaining() != 0 {
				return format.Corrupt("trailing bytes in delta payload")
			}
		default:
			return format.Corrupt("codec tag invalid for an int column")
		}
	case source.Float:
		c.Kind = source.Float
		rawLen = rows * 8
		switch base {
		case tagRaw:
			if len(cand) != rawLen {
				return format.Corrupt("raw float slab has the wrong size")
			}
			c.Floats = make([]float64, rows)
			for i := range c.Floats {
				var b uint64
				for p := 0; p < 8; p++ {
					b |= uint64(cand[p*rows+i]) << (8 * p)
				}
				c.Floats[i] = math.Float64frombits(b)
			}
		case tagXor:
			if rows > len(cand) {
				return format.Corrupt("more rows than xor payload bytes")
			}
			p := format.Reader(cand)
			c.Floats = make([]float64, rows)
			prev := uint64(0)
			for i := range c.Floats {
				k := p.Uvarint() // control byte is < 0x80, so this is a plain byte read
				if k > 8 {
					p.Fail("xor control byte exceeds 8")
				}
				q := p.Need(k)
				if p.Err() != nil {
					return p.Err()
				}
				var x uint64
				for j, b := range q {
					x |= uint64(b) << (8 * j)
				}
				if k > 0 && q[k-1] == 0 {
					return format.Corrupt("non-minimal xor byte count")
				}
				prev ^= x
				c.Floats[i] = math.Float64frombits(prev)
			}
			if p.Err() != nil {
				return p.Err()
			}
			if p.Remaining() != 0 {
				return format.Corrupt("trailing bytes in xor payload")
			}
		default:
			return format.Corrupt("codec tag invalid for a float column")
		}
	case source.String:
		c.Kind = source.String
		switch base {
		case tagRaw:
			if err := decodeRawStrs(c, cand, rows); err != nil {
				return err
			}
		case tagDict:
			if err := decodeDictStrs(c, cand, rows); err != nil {
				return err
			}
		default:
			return format.Corrupt("codec tag invalid for a string column")
		}
		arena := 0
		for _, s := range c.Strs {
			arena += len(s)
		}
		rawLen = (rows+1)*4 + arena
	default:
		return format.Corrupt(fmt.Sprintf("unknown column kind %d", kind))
	}

	// The transform tag must match the size rule the encoder applies:
	// transform iff strictly smaller than the raw slab. The transform
	// size recompute is only needed to convict a raw tag — transform
	// payloads are already canonical byte-for-byte (minimal varints,
	// checked above), so their length is their size.
	if base == tagRaw {
		var transLen int
		switch kind {
		case source.Int:
			transLen = sizeDeltaInts(c.Ints)
		case source.Float:
			transLen = sizeXorFloats(c.Floats)
		case source.String:
			transLen = newDictModel(c.Strs).size()
		}
		if transLen < rawLen {
			return format.Corrupt("raw tag where the typed transform is smaller")
		}
	} else if len(cand) >= rawLen {
		return format.Corrupt("transform tag where the raw slab is no larger")
	}

	// The flate bit must match the sampled cost model, and a compressed
	// payload must be the deterministic recompression of its content —
	// DEFLATE admits many encodings of the same bytes, and accepting a
	// non-canonical one would break "one frame, one byte form".
	if flated {
		if !sampleWins(cand) {
			return format.Corrupt("flate bit where the sampled cost model declines")
		}
		if !bytes.Equal(deflate(cand), payload) {
			return format.Corrupt("flate payload is not the canonical compression")
		}
	} else if len(cand) >= flateMin && sampleWins(cand) {
		if len(deflate(cand)) < len(cand) {
			return format.Corrupt("missing flate pass where the cost model pays")
		}
	}
	return nil
}

// decodeRawStrs parses the binfmt-style offsets+arena slab, copying the
// arena so the frame does not alias the input buffer.
func decodeRawStrs(c *source.Column, cand []byte, rows int) error {
	if len(cand) < (rows+1)*4 {
		return format.Corrupt("string offset slab truncated")
	}
	offs := cand[:(rows+1)*4]
	if le.Uint32(offs) != 0 {
		return format.Corrupt("string offsets do not start at 0")
	}
	arenaLen := le.Uint32(offs[4*rows:])
	if len(cand) != (rows+1)*4+int(arenaLen) {
		return format.Corrupt("string arena length disagrees with payload size")
	}
	arena := append([]byte(nil), cand[(rows+1)*4:]...)
	c.Strs = make([]string, rows)
	prev := uint32(0)
	for i := 0; i < rows; i++ {
		end := le.Uint32(offs[4*(i+1):])
		if end < prev || end > arenaLen {
			return format.Corrupt("string offsets not monotone")
		}
		c.Strs[i] = envelope.Alias(arena[prev:end])
		prev = end
	}
	return nil
}

// decodeDictStrs parses the front-coded dictionary and per-row indexes,
// verifying strict sort order, maximal prefixes, full reference
// coverage, and index bounds.
func decodeDictStrs(c *source.Column, cand []byte, rows int) error {
	if rows > len(cand) {
		return format.Corrupt("more rows than dictionary index bytes")
	}
	p := format.Reader(cand)
	dictN := p.Uvarint()
	if p.Err() != nil {
		return p.Err()
	}
	// Every entry costs at least two varint bytes; every row one index
	// byte. Bounding dictN here keeps a hostile count from provoking a
	// large allocation the payload could never back.
	if dictN > uint64(p.Remaining()) {
		return format.Corrupt("dictionary count exceeds payload")
	}
	// Scan pass: walk the entry headers once to learn the exact arena
	// size, so the build pass allocates it whole (one allocation, and
	// entry aliases into it never move). Prefix lengths are checked
	// against the previous entry's length here too, so a hostile header
	// cannot claim an arena the entries could never build, and the total
	// is capped at the encoder's own 4GiB arena bound.
	scan := p
	total := 0
	prevLen := 0
	for i := uint64(0); i < dictN; i++ {
		pl := scan.Uvarint()
		sl := scan.Uvarint()
		if scan.Err() == nil && (pl > uint64(prevLen) || sl > math.MaxUint32) {
			scan.Fail("front-coding prefix exceeds the previous entry")
		}
		scan.Need(sl)
		if scan.Err() != nil {
			return scan.Err()
		}
		prevLen = int(pl) + int(sl)
		total += prevLen
		if total > math.MaxUint32 {
			return format.Corrupt("dictionary arena exceeds 4GiB")
		}
	}

	entries := make([]string, dictN)
	arena := make([]byte, 0, total)
	prev := ""
	for i := range entries {
		pl := p.Uvarint()
		sl := p.Uvarint()
		if p.Err() != nil {
			return p.Err()
		}
		if pl > uint64(len(prev)) {
			return format.Corrupt("front-coding prefix exceeds the previous entry")
		}
		suffix := p.Need(sl)
		if p.Err() != nil {
			return p.Err()
		}
		if i > 0 {
			if sl == 0 {
				return format.Corrupt("dictionary entries not strictly sorted")
			}
			if int(pl) < len(prev) && suffix[0] <= prev[pl] {
				// <: unsorted. ==: the shared prefix was not maximal, so the
				// entry would re-encode differently.
				return format.Corrupt("dictionary front-coding is not canonical")
			}
		}
		start := len(arena)
		arena = append(arena, prev[:pl]...)
		arena = append(arena, suffix...)
		entries[i] = envelope.Alias(arena[start:len(arena)])
		prev = entries[i]
	}

	used := make([]bool, dictN)
	c.Strs = make([]string, rows)
	for i := 0; i < rows; i++ {
		ix := p.Uvarint()
		if p.Err() != nil {
			return p.Err()
		}
		if ix >= dictN {
			return format.Corrupt("dictionary index out of range")
		}
		used[ix] = true
		c.Strs[i] = entries[ix]
	}
	if p.Remaining() != 0 {
		return format.Corrupt("trailing bytes in dictionary payload")
	}
	for _, u := range used {
		if !u {
			return format.Corrupt("unreferenced dictionary entry")
		}
	}
	return nil
}
