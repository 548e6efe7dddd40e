package framez

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/dates"
	"repro/internal/source"
	"repro/internal/source/binfmt"
	"repro/internal/source/envelope"
)

// sampleFrame mirrors the frame the CSV/JSON/binfmt codec tests pin:
// mixed kinds, awkward cell contents, ordered metadata.
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

// wideFrame builds a frame with the sample schema scaled to rows rows.
// CC cycles through 97 values (dictionary-friendly), AS Name is unique
// per row (front-coding-friendly), Users drifts smoothly, Samples is
// near-monotone (delta-friendly).
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

// hardFrame stresses the cost model's "store raw" side: ints that jump
// the full 64-bit range (delta loses), floats with independent random
// bit patterns (xor loses), strings unique and prefix-free.
func hardFrame(rows int) *source.Frame {
	f := source.NewFrame("hard", dates.New(2024, 4, 21))
	is := f.AddInts("RndInt")
	fs := f.AddFloats("RndFloat")
	ss := f.AddStrings("RndStr")
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < rows; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		is.Ints = append(is.Ints, int64(x))
		// Pin the exponent to 0x3FF (normal numbers in [1, 2)) so the
		// mantissa is random but no cell is NaN or Inf.
		fs.Floats = append(fs.Floats, math.Float64frombits(x&^(uint64(0x7FF)<<52)|0x3FF<<52))
		ss.Strs = append(ss.Strs, fmt.Sprintf("%016x", x))
	}
	return f
}

func roundTripFrames() []*source.Frame {
	return []*source.Frame{
		sampleFrame(),
		wideFrame(0),
		wideFrame(1),
		wideFrame(1000),
		hardFrame(200),
		source.NewFrame("empty", dates.New(2020, 1, 1)),
	}
}

func TestRoundTrip(t *testing.T) {
	for _, f := range roundTripFrames() {
		buf, err := Encode(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Source, err)
		}
		g, err := Decode(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", f.Source, err)
		}
		if !f.Equal(g) {
			t.Fatalf("%s: frame changed across compressed round trip", f.Source)
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

// TestEncodeParallelDeterministic pins that the worker pool only
// parallelizes the work, never the bytes: every worker count produces
// the identical encoding.
func TestEncodeParallelDeterministic(t *testing.T) {
	f := wideFrame(3000)
	defer func() { encodeWorkers = 0 }()
	encodeWorkers = 1
	want, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		encodeWorkers = w
		got, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%d workers produced different bytes than 1 worker", w)
		}
	}
}

// TestDecodeParallelDeterministic: decode's worker pool must yield the
// identical frame at every worker count — pinned through the canonical
// re-encoding, which covers every cell and the container fields at once.
func TestDecodeParallelDeterministic(t *testing.T) {
	buf, err := Encode(wideFrame(3000))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { decodeWorkers = 0 }()
	for _, w := range []int{1, 2, 3, 8} {
		decodeWorkers = w
		f, err := Decode(buf)
		if err != nil {
			t.Fatalf("%d workers: %v", w, err)
		}
		again, err := Encode(f)
		if err != nil {
			t.Fatalf("%d workers: %v", w, err)
		}
		if !bytes.Equal(buf, again) {
			t.Fatalf("%d workers decoded a frame that re-encodes differently", w)
		}
	}
}

// TestDecodeSelfContained pins the opposite contract from binfmt's
// zero-copy aliasing: a decoded framez frame must not reference the
// input buffer, so callers can recycle it immediately.
func TestDecodeSelfContained(t *testing.T) {
	buf, err := Encode(wideFrame(50))
	if err != nil {
		t.Fatal(err)
	}
	f, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	start := uintptr(unsafe.Pointer(&buf[0]))
	end := start + uintptr(len(buf))
	for _, c := range f.Cols {
		for _, s := range c.Strs {
			if len(s) == 0 {
				continue
			}
			p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			if p >= start && p < end {
				t.Fatalf("column %q aliases the input buffer", c.Name)
			}
		}
	}
	// Clobbering the input must not disturb the decoded frame.
	want := f.Col("CC").Strs[0]
	for i := range buf {
		buf[i] = 0xAA
	}
	if f.Col("CC").Strs[0] != want {
		t.Fatal("decoded frame changed when the input buffer was overwritten")
	}
}

// TestDecodeAllocBudget pins that decode allocates per column, not per
// cell. The sample frame's payloads sit below the flate floor, so its
// decode never touches the flate pools and its count is exact, which
// catches a container reader that escapes to the heap. The wide frames
// take the flate pass, and their count must not grow with the rows.
func TestDecodeAllocBudget(t *testing.T) {
	// Container headers + a few buffers per column (inflate, verify,
	// arena). Measured at one worker so the count is exact: the pool's
	// fixed per-Decode cost (descriptor/error slices, channel, worker
	// stacks) is constant in rows, and the real parallel path's alloc
	// count is gated in benchsweep.
	const sampleAllocs, budget = 26, 128
	defer func() { decodeWorkers = 0 }()
	decodeWorkers = 1
	allocs := func(f *source.Frame) float64 {
		buf, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		var sink *source.Frame
		n := testing.AllocsPerRun(100, func() {
			f, err := Decode(buf)
			if err != nil {
				t.Fatal(err)
			}
			sink = f
		})
		_ = sink
		return n
	}
	if n := allocs(sampleFrame()); n != sampleAllocs {
		t.Errorf("decode of the sample frame allocates %.0f times, want exactly %d", n, sampleAllocs)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector; pooled alloc counts are not meaningful")
	}
	small, large := allocs(wideFrame(100)), allocs(wideFrame(10000))
	if small > budget {
		t.Errorf("decode of a 100-row frame allocates %.0f times, budget %d", small, budget)
	}
	if large > budget {
		t.Errorf("decode of a 10000-row frame allocates %.0f times, budget %d", large, budget)
	}
}

// TestCompressionWins is the package's reason to exist: on a realistic
// wide frame the compressed encoding must be well under half the raw
// binary plane's size.
func TestCompressionWins(t *testing.T) {
	f := wideFrame(5000)
	raw, err := binfmt.Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	z, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(z)*2 >= len(raw) {
		t.Fatalf("binz %d bytes vs bin %d: less than 2x smaller", len(z), len(raw))
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

// TestTransformSelection pins the cost model's choices on frames built
// to favor each side, via the codec tags on the wire.
func TestTransformSelection(t *testing.T) {
	tags := func(f *source.Frame) map[string]byte {
		buf, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]byte{}
		for _, c := range f.Cols {
			// Search for the length-prefixed name so a short name cannot
			// match payload (or magic) bytes.
			needle := envelope.AppendStr(nil, c.Name)
			i := bytes.Index(buf, needle)
			if i < 0 {
				t.Fatalf("column %q not found in encoding", c.Name)
			}
			out[c.Name] = buf[i+len(needle)+1] // kind byte, then tag byte
		}
		return out
	}
	wide := tags(wideFrame(2000))
	if got := wide["Samples"] &^ flagFlate; got != tagDelta {
		t.Errorf("near-monotone ints: tag %d, want delta", got)
	}
	if got := wide["CC"] &^ flagFlate; got != tagDict {
		t.Errorf("low-cardinality strings: tag %d, want dict", got)
	}
	hard := tags(hardFrame(2000))
	if got := hard["RndInt"] &^ flagFlate; got != tagRaw {
		t.Errorf("random ints: tag %d, want raw", got)
	}
	if got := hard["RndFloat"] &^ flagFlate; got != tagRaw {
		t.Errorf("random floats: tag %d, want raw", got)
	}
	// A constant float column must collapse via xor.
	f := source.NewFrame("flat", dates.New(2024, 4, 21))
	c := f.AddFloats("V")
	for i := 0; i < 500; i++ {
		c.Floats = append(c.Floats, 42.5)
	}
	if got := tags(f)["V"] &^ flagFlate; got != tagXor {
		t.Errorf("constant floats: tag %d, want xor", got)
	}
}
