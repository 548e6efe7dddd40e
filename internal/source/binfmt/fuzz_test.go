package binfmt

import (
	"testing"
)

// FuzzDecodeFrame drives the zero-copy decoder with arbitrary bytes: it
// must reject anything malformed with an error — never a panic, never an
// out-of-bounds alias — and anything it accepts must be a well-formed
// frame that re-encodes canonically. CI runs a short -fuzz smoke on top
// of the committed corpus.
func FuzzDecodeFrame(f *testing.F) {
	seeds := [][]byte{nil, format.Magic[:]}
	if b, err := Encode(sampleFrame()); err == nil {
		seeds = append(seeds, b, b[:len(b)/2], b[4:], append(append([]byte(nil), b...), 0))
	}
	if b, err := Encode(wideFrame(3)); err == nil {
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
		// The format is canonical: whatever decodes must re-encode to the
		// exact input bytes.
		out, err := Encode(fr)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if string(out) != string(data) {
			t.Fatalf("accepted input is not canonical: %d bytes in, %d bytes re-encoded", len(data), len(out))
		}
	})
}
