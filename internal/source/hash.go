package source

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// ContentHash returns a strong, canonical digest of the frame's content:
// source name, date, ordered metadata, and every column's name, kind, and
// cells. Two frames hash equal iff Frame.Equal would report them equal,
// so the digest is a valid strong ETag for any immutable dataset-day —
// the serving layer derives If-None-Match validators from it without
// rendering (or buffering) a response body.
//
// The digest is SHA-256 truncated to 128 bits, hex-encoded (32 bytes of
// ASCII): collision-safe for cache validation while keeping headers
// short. Each field is length-prefixed before hashing so concatenation
// ambiguities ("ab"+"c" vs "a"+"bc") cannot collide.
func (f *Frame) ContentHash() string {
	h := sha256.New()
	var scratch [binary.MaxVarintLen64]byte
	writeStr := func(s string) {
		n := binary.PutUvarint(scratch[:], uint64(len(s)))
		h.Write(scratch[:n])
		// io.WriteString would allocate through the hash.Hash interface on
		// some Go versions; sha256's Write never retains the slice.
		h.Write([]byte(s))
	}
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		h.Write(scratch[:8])
	}

	writeStr(f.Source)
	writeU64(uint64(int64(f.Date.DayNumber())))
	writeU64(uint64(len(f.Meta)))
	for _, kv := range f.Meta {
		writeStr(kv[0])
		writeStr(kv[1])
	}
	writeU64(uint64(len(f.Cols)))
	for _, c := range f.Cols {
		hashColumn(h, c, writeStr, writeU64)
	}

	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return hex.EncodeToString(sum[:16])
}

// hashColumn folds one column into the digest. Numeric cells hash their
// binary representation (not the formatted string), so hashing a frame is
// cheaper than rendering it: no per-cell string formatting.
func hashColumn(h hash.Hash, c *Column, writeStr func(string), writeU64 func(uint64)) {
	writeStr(c.Name)
	writeU64(uint64(c.Kind))
	writeU64(uint64(c.Len()))
	switch c.Kind {
	case String:
		for _, s := range c.Strs {
			writeStr(s)
		}
	case Int:
		for _, v := range c.Ints {
			writeU64(uint64(v))
		}
	default:
		for _, v := range c.Floats {
			writeU64(math.Float64bits(v))
		}
	}
}

// FormatETag builds a quoted strong entity tag from a content hash (a
// frame's ContentHash, or a cached body hash) and a representation
// variant. The variant distinguishes representations of the same content
// (codec and content-coding), since a strong validator must change
// whenever the bytes on the wire do:
// FormatETag(h, "csv") != FormatETag(h, "csv.gz") != FormatETag(h, "json").
func FormatETag(hash, variant string) string {
	if variant == "" {
		return `"` + hash + `"`
	}
	return `"` + hash + "-" + variant + `"`
}
