package source

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/dates"
)

// Edge-case palettes shared by FuzzFrameText and TestFrameTextEdgeCases:
// every branch of the CSV quoting rule and the JSON string and float
// rules has a member here.
var (
	textStrings = []string{
		"", "plain", ",", "a,b", `"`, `say "hi"`, `""`,
		"\r", "\n", "a\r\nb", "tail\n", "cr\rmid",
		" lead", "\tlead", "\vlead", "\u0085nel", "\u00a0nbsp", "\u3000wide", "trail ",
		`\.`, `\.x`, `\`, `a\b`,
		"<>&", "a<b>&c",
		"\u2028", "x\u2029y", "\u2027\u202a",
		"\xff", "a\xe2\x80", "\xe2\x80\xa8", "\xed\xa0\x80",
		"\x00\x01\x1f\x7f", "\b\f\t",
		"ü", "日本", "🙂",
	}
	textFloats = []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 123456789.125,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, math.Nextafter(-1e-6, 0),
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, math.Nextafter(-1e21, 0),
		1e-7, 1e-10, 1e-100, 1e20, 1e22, 1e300,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, math.Nextafter(0x1p-1022, 0),
		math.MaxFloat64, -math.MaxFloat64,
	}
	nonFinite = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	textInts  = []int64{0, 1, -1, 42, math.MinInt64, math.MaxInt64, 1<<53 + 1, -(1 << 53) - 1}
)

// checkTextCodecs is the differential oracle: WriteCSV and WriteJSON
// must produce the reference encoders' bytes and errors, the exact-size
// renders (CSVBytes, JSONBytes) must produce the writers' bytes and
// errors, a NaN or ±Inf cell must make WriteJSON fail before writing,
// and wherever the text format can represent the frame the readers must
// round-trip it.
func checkTextCodecs(t *testing.T, f *Frame) {
	t.Helper()
	for _, c := range []struct {
		name       string
		write, ref func(*Frame, io.Writer) error
		render     func(*Frame) ([]byte, error)
		read       func(io.Reader) (*Frame, error)
		roundTrips bool
	}{
		{"csv", (*Frame).WriteCSV, RefWriteCSV, (*Frame).CSVBytes, ReadCSV, csvRepresentable(f)},
		{"json", (*Frame).WriteJSON, RefWriteJSON, (*Frame).JSONBytes, ReadJSON, jsonRepresentable(f)},
	} {
		var got, want bytes.Buffer
		err, refErr := c.write(f, &got), c.ref(f, &want)
		rendered, renderErr := c.render(f)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("%s: error %v, reference error %v", c.name, err, refErr)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: bytes differ from the reference at offset %d:\n got  %q\n want %q",
				c.name, firstDiff(got.Bytes(), want.Bytes()), got.Bytes(), want.Bytes())
		}
		if fmt.Sprint(renderErr) != fmt.Sprint(err) {
			t.Fatalf("%s: exact-size render error %v, writer error %v", c.name, renderErr, err)
		}
		if !bytes.Equal(rendered, got.Bytes()) || cap(rendered) != len(rendered) {
			t.Fatalf("%s: exact-size render (%d bytes, capacity %d) differs from the writer's bytes at offset %d:\n got  %q\n want %q",
				c.name, len(rendered), cap(rendered), firstDiff(rendered, got.Bytes()), rendered, got.Bytes())
		}
		if c.name == "json" && hasFloat(f, nonFiniteFloat) {
			if err == nil || got.Len() != 0 {
				t.Fatalf("json: non-finite cell gave err=%v after %d bytes; want an error before any byte", err, got.Len())
			}
		}
		if err != nil || !c.roundTrips {
			continue
		}
		g, err := c.read(&got)
		if err != nil {
			t.Fatalf("%s: reading the encoded frame: %v\n%q", c.name, err, want.Bytes())
		}
		if !f.Equal(g) {
			t.Fatalf("%s: frame changed across the round trip\n%q", c.name, want.Bytes())
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// frameStrings lists every string the codecs serialize.
func frameStrings(f *Frame) []string {
	s := []string{f.Source}
	for _, kv := range f.Meta {
		s = append(s, kv[0], kv[1])
	}
	for _, c := range f.Cols {
		s = append(s, c.Name)
		if c.Kind == String {
			s = append(s, c.Strs...)
		}
	}
	return s
}

// hasFloat reports whether any float cell satisfies pred.
func hasFloat(f *Frame, pred func(float64) bool) bool {
	for _, c := range f.Cols {
		if c.Kind != String && c.Kind != Int && slices.ContainsFunc(c.Floats, pred) {
			return true
		}
	}
	return false
}

func nonFiniteFloat(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// csvRepresentable reports whether ReadCSV can give back an Equal frame.
// encoding/csv's reader skips blank lines (a frame without columns has
// a blank header; a one-string-column row with an empty cell is blank)
// and turns CRLF into LF even inside quotes, and NaN never compares
// equal to itself.
func csvRepresentable(f *Frame) bool {
	if len(f.Cols) == 0 || hasFloat(f, math.IsNaN) {
		return false
	}
	if c := f.Cols[0]; len(f.Cols) == 1 && c.Kind == String {
		for _, v := range c.Strs {
			if v == "" {
				return false
			}
		}
	}
	for _, s := range frameStrings(f) {
		if strings.Contains(s, "\r\n") {
			return false
		}
	}
	return true
}

// jsonRepresentable reports whether ReadJSON can give back an Equal
// frame: invalid UTF-8 is written as U+FFFD.
func jsonRepresentable(f *Frame) bool {
	for _, s := range frameStrings(f) {
		if !utf8.ValidString(s) {
			return false
		}
	}
	return true
}

// TestFrameTextEdgeCases runs the oracle over hand-built frames that
// hold every palette value, the empty shapes, and the non-finite floats.
func TestFrameTextEdgeCases(t *testing.T) {
	day := dates.New(2024, 2, 29)
	frames := map[string]*Frame{}

	all := NewFrame("edge", day)
	for i, s := range textStrings {
		all.AddMeta(s, textStrings[len(textStrings)-1-i])
	}
	strs := all.AddStrings("strings")
	strs.Strs = textStrings
	ints := all.AddInts("ints")
	floats := all.AddFloats("floats")
	for i := range textStrings {
		ints.Ints = append(ints.Ints, textInts[i%len(textInts)])
		floats.Floats = append(floats.Floats, textFloats[i%len(textFloats)])
	}
	frames["palette"] = all

	names := NewFrame("names", day)
	for i, s := range textStrings {
		names.AddInts(fmt.Sprintf("%s%d", s, i)).Ints = []int64{int64(i)}
		names.AddStrings(fmt.Sprintf("%d%s", i, s)).Strs = []string{s}
	}
	frames["column names"] = names

	fl := NewFrame("floats", day)
	fl.AddFloats("v").Floats = textFloats
	frames["floats"] = fl

	in := NewFrame("ints", day)
	in.AddInts("v").Ints = textInts
	frames["ints"] = in

	for _, s := range textStrings {
		one := NewFrame(s+"src", day)
		one.AddStrings("s").Strs = []string{s, s}
		frames[fmt.Sprintf("one string %q", s)] = one
	}

	frames["no columns"] = NewFrame("empty", day)
	noCols := NewFrame("empty", day)
	noCols.Cols = []*Column{}
	noCols.Meta = [][2]string{}
	frames["no columns, empty non-nil slices"] = noCols
	withMeta := NewFrame("empty", day)
	withMeta.AddMeta("k", "v")
	frames["no columns, meta"] = withMeta

	nils := NewFrame("zero", day)
	nils.AddStrings("s")
	nils.AddInts("i")
	nils.AddFloats("f")
	frames["zero rows, nil slices"] = nils
	empties := NewFrame("zero", day)
	empties.AddStrings("s").Strs = []string{}
	empties.AddInts("i").Ints = []int64{}
	empties.AddFloats("f").Floats = []float64{}
	frames["zero rows, empty slices"] = empties
	mixed := NewFrame("zero", day)
	mixed.AddStrings("s")
	mixed.AddInts("i").Ints = []int64{}
	frames["zero rows, nil and empty"] = mixed

	for _, v := range nonFinite {
		nf := NewFrame("nonfinite", day)
		nf.AddInts("i").Ints = []int64{1, 2}
		nf.AddFloats("f").Floats = []float64{0.5, v}
		frames[fmt.Sprintf("non-finite %v", v)] = nf
	}

	dup := NewFrame("dup", day)
	dup.AddInts("a")
	dup.AddInts("a")
	frames["check error"] = dup

	big := wideTextFrame(3000)
	big.Cols[0].Strs[7] = strings.Repeat(`x"`, maxPooledBuf/2) // a body too large to pool its buffer
	frames["unpooled buffer"] = big

	for name, f := range frames {
		t.Run(name, func(t *testing.T) { checkTextCodecs(t, f) })
	}
}

// FuzzFrameText builds a random frame from the input bytes, drawing its
// strings, floats and ints mostly from the edge-case palettes (and
// otherwise raw from the input), and runs the differential oracle. CI
// runs a short -fuzz smoke on top of the seeds.
func FuzzFrameText(f *testing.F) {
	f.Add([]byte{})
	for k := 0; k < 8; k++ {
		seed := make([]byte, 96)
		for i := range seed {
			seed[i] = byte(k*31 + i)
		}
		f.Add(seed)
	}
	f.Add(bytes.Repeat([]byte{0xff, 0x7f, 3, 1}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTextCodecs(t, fuzzFrame(&fuzzInput{data: data}))
	})
}

// fuzzInput hands out the fuzz bytes as choices; past the end every
// choice is zero.
type fuzzInput struct {
	data []byte
	i    int
}

func (z *fuzzInput) byte() byte {
	if z.i >= len(z.data) {
		return 0
	}
	z.i++
	return z.data[z.i-1]
}

func (z *fuzzInput) pick(n int) int { return int(z.byte()) % n }

func (z *fuzzInput) uint64() uint64 {
	var v uint64
	for range 8 {
		v = v<<8 | uint64(z.byte())
	}
	return v
}

func (z *fuzzInput) str() string {
	b := z.byte()
	if b%4 != 3 {
		return textStrings[int(b)%len(textStrings)]
	}
	n := z.pick(12)
	end := min(z.i+n, len(z.data))
	s := string(z.data[z.i:end])
	z.i = end
	return s
}

func (z *fuzzInput) float() float64 {
	switch b := z.byte(); {
	case b%8 == 7:
		return math.Float64frombits(z.uint64())
	case b%16 == 6:
		return nonFinite[int(b/16)%len(nonFinite)]
	default:
		return textFloats[int(b)%len(textFloats)]
	}
}

func (z *fuzzInput) int() int64 {
	if b := z.byte(); b%4 != 3 {
		return textInts[int(b)%len(textInts)]
	}
	return int64(z.uint64())
}

func fuzzFrame(z *fuzzInput) *Frame {
	f := NewFrame(z.str()+"src", dates.New(1990+z.pick(50), 1+z.pick(12), 1+z.pick(28)))
	for range z.pick(3) {
		f.AddMeta(z.str(), z.str())
	}
	nCols, nRows := z.pick(5), z.pick(6)
	for i := range nCols {
		name := z.str()
		if name == "" {
			name = fmt.Sprint("c", i)
		}
		c := f.addCol(name, Kind(z.pick(3)))
		if nRows == 0 && z.byte()%2 == 0 {
			continue // leave the value slice nil
		}
		switch c.Kind {
		case String:
			c.Strs = make([]string, nRows)
			for r := range c.Strs {
				c.Strs[r] = z.str()
			}
		case Int:
			c.Ints = make([]int64, nRows)
			for r := range c.Ints {
				c.Ints[r] = z.int()
			}
		default:
			c.Floats = make([]float64, nRows)
			for r := range c.Floats {
				c.Floats[r] = z.float()
			}
		}
	}
	return f
}

// wideTextFrame is a synthetic n-row frame with the column mix of a
// report: a string column (some cells needing CSV quotes and JSON
// escapes), ints, and floats across magnitudes.
func wideTextFrame(n int) *Frame {
	f := NewFrame("wide", dates.New(2024, 6, 1))
	f.AddMeta("window-days", "60")
	name := f.AddStrings("AS Name")
	cc := f.AddStrings("CC")
	asn := f.AddInts("ASN")
	users := f.AddFloats("Users")
	share := f.AddFloats("% of Country")
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			name.Strs = append(name.Strs, fmt.Sprintf("Org %d, Inc.", i))
		case 1:
			name.Strs = append(name.Strs, fmt.Sprintf(`"Quoted" <%d> & co`, i))
		default:
			name.Strs = append(name.Strs, fmt.Sprintf("AS-NET-%d", i))
		}
		cc.Strs = append(cc.Strs, textStrings[7+i%3])
		asn.Ints = append(asn.Ints, int64(64512+i))
		users.Floats = append(users.Floats, float64(i)*1234.56789)
		share.Floats = append(share.Floats, 1/float64(i+3)/1e5)
	}
	return f
}

// textWriters are the two encoders under test, by codec name.
var textWriters = map[string]func(*Frame, io.Writer) error{
	"csv": (*Frame).WriteCSV, "json": (*Frame).WriteJSON,
}

// countingWriter records how many Writes it receives.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestTextEncodersOneWrite pins the writers' shape: the whole body
// reaches the writer in one Write, the bytes the exact-size render
// returns.
func TestTextEncodersOneWrite(t *testing.T) {
	f := wideTextFrame(5000)
	for name, write := range textWriters {
		var w countingWriter
		if err := write(f, &w); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Errorf("%s: the %d-byte body took %d Writes, want 1", name, w.Len(), w.writes)
		}
	}
}

// TestTextEncodersWriteErrorStops checks that a failing writer's
// error is returned and no second Write follows it.
func TestTextEncodersWriteErrorStops(t *testing.T) {
	f := wideTextFrame(5000)
	for name, write := range textWriters {
		w := &failingWriter{}
		if err := write(f, w); err != errWriteFailed {
			t.Errorf("%s: err = %v, want the writer's error", name, err)
		}
		if w.calls != 1 {
			t.Errorf("%s: %d writes after the first failed", name, w.calls-1)
		}
	}
}

var errWriteFailed = fmt.Errorf("write failed")

type failingWriter struct{ calls int }

func (w *failingWriter) Write([]byte) (int, error) {
	w.calls++
	return 0, errWriteFailed
}

// TestTextEncodersAllocsFlat is the allocation guard: rendering 5,000
// rows must allocate no more than rendering 50, so no per-row or
// per-cell allocation can creep back into the encoders.
func TestTextEncodersAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	small, large := wideTextFrame(50), wideTextFrame(5000)
	for name, write := range textWriters {
		allocs := func(f *Frame) float64 {
			return testing.AllocsPerRun(20, func() {
				if err := write(f, io.Discard); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a, b := allocs(small), allocs(large); b > a {
			t.Errorf("%s: %v allocs at 5000 rows vs %v at 50; the encoder allocates per row", name, b, a)
		}
	}
}
