package binfmt

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/dates"
	"repro/internal/source"
	"repro/internal/source/envelope"
)

// sampleFrame mirrors the frame the CSV/JSON codec tests pin: mixed
// kinds, awkward cell contents, ordered metadata.
func sampleFrame() *source.Frame {
	f := source.NewFrame("sample", dates.New(2024, 4, 21))
	f.AddMeta("window-days", "60")
	f.AddMeta("note", "quoted, cell")
	cc := f.AddStrings("CC")
	cc.Strs = []string{"DE", "FR", "T1"}
	n := f.AddInts("Samples")
	n.Ints = []int64{120, -4, 1 << 61}
	u := f.AddFloats("Users")
	u.Floats = []float64{1234.5, 0.000125, 2.0e7}
	name := f.AddStrings("AS Name")
	name.Strs = []string{`Deutsche "Telekom"`, "Bouygues, SA", ""}
	return f
}

// wideFrame builds a frame with the sample schema scaled to rows rows,
// for the O(1)-allocations and throughput measurements.
func wideFrame(rows int) *source.Frame {
	f := source.NewFrame("wide", dates.New(2024, 4, 21))
	f.AddMeta("window-days", "60")
	cc := f.AddStrings("CC")
	name := f.AddStrings("AS Name")
	users := f.AddFloats("Users")
	samples := f.AddInts("Samples")
	for i := 0; i < rows; i++ {
		cc.Strs = append(cc.Strs, fmt.Sprintf("C%d", i%97))
		name.Strs = append(name.Strs, fmt.Sprintf("AS-NAME-%d network", i))
		users.Floats = append(users.Floats, float64(i)*1.75+0.125)
		samples.Ints = append(samples.Ints, int64(i)*3-7)
	}
	return f
}

func TestRoundTrip(t *testing.T) {
	for _, f := range []*source.Frame{
		sampleFrame(),
		wideFrame(0),
		wideFrame(1),
		wideFrame(1000),
		source.NewFrame("empty", dates.New(2020, 1, 1)),
	} {
		buf, err := Encode(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Source, err)
		}
		if len(buf) != Size(f) {
			t.Fatalf("%s: encoded %d bytes, Size says %d", f.Source, len(buf), Size(f))
		}
		g, err := Decode(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", f.Source, err)
		}
		if !f.Equal(g) {
			t.Fatalf("%s: frame changed across binary round trip", f.Source)
		}
		// Canonical: re-encoding the decoded frame reproduces the bytes.
		again, err := Encode(g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, again) {
			t.Fatalf("%s: re-encoded bytes differ", f.Source)
		}
	}
}

// TestDecodeAliases pins the zero-copy contract: decoded numeric slabs
// and string cells point into the input buffer, not copies of it.
func TestDecodeAliases(t *testing.T) {
	buf, err := Encode(sampleFrame())
	if err != nil {
		t.Fatal(err)
	}
	f, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	ints := f.Col("Samples").Ints
	if len(ints) == 0 {
		t.Fatal("no int cells")
	}
	if !inBuf(buf, uintptr(unsafe.Pointer(&ints[0]))) {
		t.Error("int slab was copied, not aliased")
	}
	strs := f.Col("AS Name").Strs
	if !inBuf(buf, uintptr(unsafe.Pointer(unsafe.StringData(strs[0])))) {
		t.Error("string cell was copied, not aliased")
	}
}

// inBuf reports whether the pointer lands inside buf's backing array.
func inBuf(buf []byte, p uintptr) bool {
	start := uintptr(unsafe.Pointer(&buf[0]))
	return p >= start && p < start+uintptr(len(buf))
}

// TestDecodeUnalignedFallsBack: a decoder handed a misaligned subslice
// must still decode correctly (via the copying path).
func TestDecodeUnalignedFallsBack(t *testing.T) {
	f := sampleFrame()
	buf, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	shifted := make([]byte, len(buf)+1)
	copy(shifted[1:], buf)
	g, err := Decode(shifted[1:])
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equal(g) {
		t.Fatal("misaligned decode changed the frame")
	}
}

// TestDecodeAllocBudget pins the exact decode allocation count: the
// frame, its metadata, the column and pointer slices, and one []string
// per string column, at any row count. This is the alloc gate the
// serving path's binary decode depends on — it runs in every `go test`,
// so CI enforces it alongside the sweep gates — and it is exact so a
// container reader that escapes to the heap shows up as a failure.
func TestDecodeAllocBudget(t *testing.T) {
	const want = 6
	for _, rows := range []int{100, 10000} {
		buf, err := Encode(wideFrame(rows))
		if err != nil {
			t.Fatal(err)
		}
		var sink *source.Frame
		n := testing.AllocsPerRun(200, func() {
			f, err := Decode(buf)
			if err != nil {
				t.Fatal(err)
			}
			sink = f
		})
		_ = sink
		if n != want {
			t.Errorf("decode of a %d-row frame allocates %.0f times, want exactly %d", rows, n, want)
		}
	}
}

// TestDecodeRejectsCorruption covers the column-level faults; the
// container faults both codecs share are in envelope's hostile table.
func TestDecodeRejectsCorruption(t *testing.T) {
	buf, err := Encode(sampleFrame())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated body", func(b []byte) []byte { return reseal(b[:len(b)-20]) }},
		{"flipped cell bit", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }},
	}
	for _, tc := range cases {
		in := tc.mutate(append([]byte(nil), buf...))
		if _, err := Decode(in); err == nil {
			t.Errorf("%s: decode accepted corrupt input", tc.name)
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

func TestDecodeErrorsAreErrors(t *testing.T) {
	// A frame whose column kinds lie about their payload must error, not
	// mis-alias: kind byte swapped to an out-of-range value.
	buf, err := Encode(sampleFrame())
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(buf, []byte("Samples"))
	if i < 0 {
		t.Fatal("column name not found")
	}
	buf[i+len("Samples")] = 7 // kind byte follows the name bytes
	if _, err := Decode(reseal(buf)); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("bad kind byte not rejected: %v", err)
	}
}

func TestEncodeRejectsBadFrames(t *testing.T) {
	f := sampleFrame()
	f.Cols[0].Strs = f.Cols[0].Strs[:1] // ragged columns
	if _, err := Encode(f); err == nil {
		t.Error("ragged frame encoded")
	}
	if _, err := Encode(source.NewFrame("", dates.New(2024, 1, 1))); err == nil {
		t.Error("nameless frame encoded")
	}
}

func TestFloatBitExactness(t *testing.T) {
	f := source.NewFrame("floats", dates.New(2024, 4, 21))
	c := f.AddFloats("V")
	c.Floats = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.Pi, 5e-324}
	nan := math.NaN()
	c.Floats = append(c.Floats, nan)
	buf, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	got := g.Col("V").Floats
	for i, want := range c.Floats {
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Errorf("cell %d: bits %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(want))
		}
	}
}
