package framez

import (
	"testing"
)

// FuzzDecodeFrameZ drives the compressed decoder with arbitrary bytes:
// it must reject anything malformed with an error — never a panic, never
// an oversized allocation — and anything it accepts must be a well-formed
// frame that re-encodes byte-identically. The canonicality checks make
// the oracle strict: a hostile input cannot smuggle an alternative
// DEFLATE stream, a non-minimal varint, or a misordered dictionary past
// Decode, because each would re-encode differently. CI runs a short
// -fuzz smoke on top of the committed corpus.
func FuzzDecodeFrameZ(f *testing.F) {
	seeds := [][]byte{nil, format.Magic[:]}
	if b, err := Encode(sampleFrame()); err == nil {
		seeds = append(seeds, b, b[:len(b)/2], b[4:], append(append([]byte(nil), b...), 0))
	}
	// Big enough that dict, delta, and flate all engage.
	if b, err := Encode(wideFrame(300)); err == nil {
		seeds = append(seeds, b)
	}
	if b, err := Encode(hardFrame(100)); err == nil {
		seeds = append(seeds, b)
	}
	if b, err := Encode(wideFrame(0)); err == nil {
		seeds = append(seeds, b)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Decode(data)
		if err != nil {
			return
		}
		if err := fr.Check(); err != nil {
			t.Fatalf("decoder accepted a frame that fails Check: %v", err)
		}
		out, err := Encode(fr)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if string(out) != string(data) {
			t.Fatalf("accepted input is not canonical: %d bytes in, %d bytes re-encoded", len(data), len(out))
		}
	})
}
