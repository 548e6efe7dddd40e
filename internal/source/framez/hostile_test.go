package framez

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dates"
	"repro/internal/source/envelope"
)

// rawCol is a hand-assembled column for hostile-input construction: the
// builder writes whatever tag, lengths, and payload it is given, so
// tests can target one malformation at a time.
type rawCol struct {
	name    string
	kind    byte
	tag     byte
	tLen    uint32
	payload []byte
}

// buildFrame assembles container bytes directly, with the column count
// taken from cols and a valid trailing CRC (corruption tests that need
// a bad CRC flip bytes afterwards).
func buildFrame(src string, day int64, rows uint32, cols []rawCol) []byte {
	b := append([]byte(nil), format.Magic[:]...)
	b = le.AppendUint16(b, Version)
	b = le.AppendUint16(b, 0)
	b = envelope.AppendStr(b, src)
	b = le.AppendUint64(b, uint64(day))
	b = le.AppendUint32(b, 0) // metaN
	b = le.AppendUint32(b, rows)
	b = le.AppendUint32(b, uint32(len(cols)))
	for _, c := range cols {
		b = envelope.AppendStr(b, c.name)
		b = append(b, c.kind, c.tag)
		b = le.AppendUint32(b, uint32(len(c.payload)))
		b = le.AppendUint32(b, c.tLen)
		b = append(b, c.payload...)
	}
	return envelope.Seal(b)
}

const testDay = 19834 // 2024-04-21

// goodCols is a minimal canonical frame the builder can assemble: one
// delta int, one xor float, one dict string, one row.
func goodCols() []rawCol {
	return []rawCol{
		{name: "I", kind: 1, tag: tagDelta, tLen: 1, payload: []byte{0x0A}},           // 5
		{name: "F", kind: 2, tag: tagXor, tLen: 1, payload: []byte{0}},                // 0.0
		{name: "S", kind: 0, tag: tagDict, tLen: 5, payload: []byte{1, 0, 1, 'x', 0}}, // "x"
	}
}

// TestBuilderProducesCanonicalFrames is the oracle for the hand
// assembler itself: its output must decode and re-encode byte-identically,
// otherwise every rejection below could be rejecting the scaffolding.
func TestBuilderProducesCanonicalFrames(t *testing.T) {
	buf := buildFrame("h", testDay, 1, goodCols())
	f, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, again) {
		t.Fatal("hand-built frame is not canonical")
	}
}

// TestDecodeParallelErrorDeterministic: when several columns are
// corrupt, the reported error must be the lowest-index column's at any
// worker count — otherwise parallel decode would surface whichever
// worker lost the race.
func TestDecodeParallelErrorDeterministic(t *testing.T) {
	cols := goodCols()
	// Column 1: xor control byte out of range. Column 2: dict index out
	// of range. Column 1's error must win.
	cols[1] = rawCol{name: "F", kind: 2, tag: tagXor, tLen: 10, payload: []byte{9, 1, 2, 3, 4, 5, 6, 7, 8, 9}}
	cols[2] = rawCol{name: "S", kind: 0, tag: tagDict, tLen: 5, payload: []byte{1, 0, 1, 'x', 1}}
	buf := buildFrame("h", testDay, 1, cols)
	defer func() { decodeWorkers = 0 }()
	for _, w := range []int{1, 2, 3, 8} {
		decodeWorkers = w
		_, err := Decode(buf)
		if err == nil {
			t.Fatalf("%d workers: hostile frame accepted", w)
		}
		if !strings.Contains(err.Error(), "control byte") {
			t.Fatalf("%d workers: got column-2's error instead of column-1's: %v", w, err)
		}
	}
}

// mutate swaps one column of the good frame for a hostile one.
func withCol(i int, c rawCol) []byte {
	cols := goodCols()
	cols[i] = c
	return buildFrame("h", testDay, 1, cols)
}

// TestDecodeRejectsHostileInput covers the column-level faults; the
// container faults both codecs share are in envelope's hostile table.
func TestDecodeRejectsHostileInput(t *testing.T) {
	valid := buildFrame("h", testDay, 1, goodCols())
	cases := []struct {
		name string
		in   []byte
		want string // substring the error must carry
	}{
		{"truncated column header", reseal(append([]byte(nil), valid[:len(valid)-10]...)), ""},

		{"codec tag out of range for int", withCol(0, rawCol{name: "I", kind: 1, tag: 5, tLen: 1, payload: []byte{0x0A}}), "codec tag invalid"},
		{"string tag on int column", withCol(0, rawCol{name: "I", kind: 1, tag: tagDict, tLen: 1, payload: []byte{0x0A}}), "codec tag invalid"},
		{"unknown kind", withCol(0, rawCol{name: "I", kind: 7, tag: tagRaw, tLen: 8, payload: make([]byte, 8)}), "kind"},

		{"varint overflow", withCol(0, rawCol{name: "I", kind: 1, tag: tagDelta, tLen: 10,
			payload: []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}}), "overflow"},
		{"non-minimal varint", withCol(0, rawCol{name: "I", kind: 1, tag: tagDelta, tLen: 2, payload: []byte{0x80, 0x00}}), "non-minimal"},
		{"delta payload truncated", withCol(0, rawCol{name: "I", kind: 1, tag: tagDelta, tLen: 1, payload: []byte{0x80}}), ""},
		{"trailing payload bytes", withCol(0, rawCol{name: "I", kind: 1, tag: tagDelta, tLen: 2, payload: []byte{0x0A, 0x0A}}), "trailing"},
		{"declared length disagrees", withCol(0, rawCol{name: "I", kind: 1, tag: tagDelta, tLen: 7, payload: []byte{0x0A}}), "declared length"},
		{"raw slab wrong size", withCol(0, rawCol{name: "I", kind: 1, tag: tagRaw, tLen: 7, payload: make([]byte, 7)}), "wrong size"},
		{"transform no smaller than raw", withCol(0, rawCol{name: "I", kind: 1, tag: tagDelta, tLen: 10,
			payload: []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}}), "raw slab is no larger"},

		{"xor control byte exceeds 8", withCol(1, rawCol{name: "F", kind: 2, tag: tagXor, tLen: 10,
			payload: []byte{9, 1, 2, 3, 4, 5, 6, 7, 8, 9}}), "control byte"},
		{"xor non-minimal byte count", withCol(1, rawCol{name: "F", kind: 2, tag: tagXor, tLen: 3, payload: []byte{2, 1, 0}}), "non-minimal"},
		{"xor payload truncated", withCol(1, rawCol{name: "F", kind: 2, tag: tagXor, tLen: 3, payload: []byte{7, 1, 2}}), ""},

		{"dict index past dictionary end", withCol(2, rawCol{name: "S", kind: 0, tag: tagDict, tLen: 5, payload: []byte{1, 0, 1, 'x', 1}}), "index out of range"},
		{"dict count exceeds payload", withCol(2, rawCol{name: "S", kind: 0, tag: tagDict, tLen: 2, payload: []byte{0x7F, 0}}), "dictionary count"},
		{"unreferenced dict entry", buildFrame("h", testDay, 1, []rawCol{
			{name: "S", kind: 0, tag: tagDict, tLen: 8, payload: []byte{2, 0, 1, 'x', 1, 1, 'y', 0}}}), "unreferenced"},
		{"dict entries unsorted", buildFrame("h", testDay, 2, []rawCol{
			{name: "S", kind: 0, tag: tagDict, tLen: 9, payload: []byte{2, 0, 1, 'y', 0, 1, 'x', 0, 1}}}), "not canonical"},
		{"dict duplicate entry", buildFrame("h", testDay, 2, []rawCol{
			{name: "S", kind: 0, tag: tagDict, tLen: 8, payload: []byte{2, 0, 1, 'x', 1, 0, 0, 1}}}), "sorted"},
		{"front-coding prefix not maximal", buildFrame("h", testDay, 2, []rawCol{
			{name: "S", kind: 0, tag: tagDict, tLen: 11, payload: []byte{2, 0, 2, 'a', 'b', 0, 2, 'a', 'c', 0, 1}}}), "not canonical"},
		{"front-coding prefix too long", buildFrame("h", testDay, 2, []rawCol{
			{name: "S", kind: 0, tag: tagDict, tLen: 9, payload: []byte{2, 0, 1, 'a', 3, 1, 'b', 0, 1}}}), "prefix exceeds"},
		{"string offsets not monotone", buildFrame("h", testDay, 2, []rawCol{
			{name: "S", kind: 0, tag: tagRaw, tLen: 14,
				payload: func() []byte {
					b := le.AppendUint32(nil, 0)
					b = le.AppendUint32(b, 3) // row 0 ends past row 1's end
					b = le.AppendUint32(b, 2) // arena length
					return append(b, 'x', 'y')
				}()}}), "monotone"},

		{"flate below size floor", withCol(0, rawCol{name: "I", kind: 1, tag: tagDelta | flagFlate, tLen: 10, payload: []byte{1, 2, 3}}), "size floor"},
		{"flate expansion bound", withCol(0, rawCol{name: "I", kind: 1, tag: tagDelta | flagFlate, tLen: 0xFFFFFF00, payload: []byte{1, 2, 3}}), "expansion bound"},
		{"flate garbage stream", withCol(0, rawCol{name: "I", kind: 1, tag: tagDelta | flagFlate, tLen: 100, payload: []byte{0xde, 0xad, 0xbe, 0xef}}), ""},
	}
	for _, tc := range cases {
		f, err := Decode(tc.in)
		if err == nil {
			t.Errorf("%s: decode accepted hostile input (frame %q)", tc.name, f.Source)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// reseal recomputes the trailing checksum so a structural mutation is
// exercised past the CRC check.
func reseal(b []byte) []byte {
	if len(b) < 4 {
		return b
	}
	return envelope.Seal(b[:len(b)-4])
}

// TestDecodeRejectsMissingFlate pins the other half of the cost-model
// contract: a payload the model would compress must arrive compressed.
func TestDecodeRejectsMissingFlate(t *testing.T) {
	// 100 rows of one repeated dict entry: highly compressible, well over
	// the flate floor, but shipped without the flate bit.
	payload := []byte{1, 0, 4, 'A', 'A', 'A', 'A'}
	for i := 0; i < 100; i++ {
		payload = append(payload, 0)
	}
	buf := buildFrame("h", testDay, 100, []rawCol{
		{name: "S", kind: 0, tag: tagDict, tLen: uint32(len(payload)), payload: payload},
	})
	if _, err := Decode(buf); err == nil || !strings.Contains(err.Error(), "missing flate pass") {
		t.Fatalf("uncompressed compressible payload accepted: %v", err)
	}
}

// TestDecodeRejectsNonCanonicalFlate pins that a flate-tagged payload
// must be the deterministic recompression of its content, not any valid
// DEFLATE stream of the same bytes.
func TestDecodeRejectsNonCanonicalFlate(t *testing.T) {
	f := wideFrame(2000)
	buf, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	// Find a flated column and splice in a stored-block DEFLATE stream of
	// the same inflated content: decodes identically, different bytes.
	g, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	needle := envelope.AppendStr(nil, "CC")
	i := bytes.Index(buf, needle)
	if i < 0 {
		t.Fatal("CC column not found")
	}
	hdr := i + len(needle)
	tag := buf[hdr+1]
	if tag&flagFlate == 0 {
		t.Skip("CC column was not flate-compressed")
	}
	encLen := le.Uint32(buf[hdr+2:])
	tLen := le.Uint32(buf[hdr+6:])
	payload := buf[hdr+10 : hdr+10+int(encLen)]
	content, err := inflate(payload, int(tLen))
	if err != nil {
		t.Fatal(err)
	}
	// Stored-block encoding: 5-byte header per chunk, content verbatim.
	var alt []byte
	for off := 0; off < len(content); off += 0xFFFF {
		end := min(off+0xFFFF, len(content))
		final := byte(0)
		if end == len(content) {
			final = 1
		}
		n := end - off
		alt = append(alt, final, byte(n), byte(n>>8), byte(^n), byte(^n>>8))
		alt = append(alt, content[off:end]...)
	}
	mutated := append([]byte(nil), buf[:hdr+2]...)
	mutated = le.AppendUint32(mutated, uint32(len(alt)))
	mutated = le.AppendUint32(mutated, tLen)
	mutated = append(mutated, alt...)
	mutated = append(mutated, buf[hdr+10+int(encLen):len(buf)-4]...)
	mutated = reseal(append(mutated, 0, 0, 0, 0))
	if _, err := Decode(mutated); err == nil || !strings.Contains(err.Error(), "canonical") {
		t.Fatalf("alternative DEFLATE stream accepted: %v", err)
	}
}

// TestHostileInputNeverPanics sweeps truncations and bit flips of a
// valid encoding through Decode: every outcome must be a frame or an
// error, never a panic (the fuzz smoke extends this with coverage
// guidance in CI).
func TestHostileInputNeverPanics(t *testing.T) {
	buf, err := Encode(sampleFrame())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(buf); cut++ {
		Decode(buf[:cut])
		Decode(reseal(append([]byte(nil), buf[:cut]...)))
	}
	for i := 0; i < len(buf); i++ {
		for _, bit := range []byte{0x01, 0x80} {
			m := append([]byte(nil), buf...)
			m[i] ^= bit
			Decode(m)
			Decode(reseal(m))
		}
	}
	_ = dates.New // keep the import honest if the day cases move
}
