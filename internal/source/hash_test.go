package source

import (
	"strings"
	"testing"

	"repro/internal/dates"
)

func hashFrame() *Frame {
	f := NewFrame("test", dates.New(2024, 4, 21))
	f.AddMeta("window-days", "60")
	cc := f.AddStrings("CC")
	asn := f.AddInts("AS")
	users := f.AddFloats("Users")
	for i := 0; i < 100; i++ {
		cc.Strs = append(cc.Strs, "FR")
		asn.Ints = append(asn.Ints, int64(5000+i))
		users.Floats = append(users.Floats, float64(i)*1.5)
	}
	return f
}

// TestContentHashStable pins that hashing is deterministic and that two
// independently built equal frames hash identically.
func TestContentHashStable(t *testing.T) {
	a, b := hashFrame(), hashFrame()
	if !a.Equal(b) {
		t.Fatal("fixture frames should be equal")
	}
	ha, hb := a.ContentHash(), b.ContentHash()
	if ha != hb {
		t.Fatalf("equal frames hash differently: %s vs %s", ha, hb)
	}
	if len(ha) != 32 {
		t.Fatalf("hash %q is %d hex chars, want 32 (128 bits)", ha, len(ha))
	}
	if ha != a.ContentHash() {
		t.Fatal("repeated hashing of the same frame is unstable")
	}
	if strings.ToLower(ha) != ha {
		t.Fatalf("hash %q is not lowercase hex", ha)
	}
}

// TestContentHashSensitivity flips every kind of content one unit at a
// time and demands the digest move: a validator that misses any of these
// would serve stale 304s.
func TestContentHashSensitivity(t *testing.T) {
	base := hashFrame().ContentHash()
	mutations := map[string]func(f *Frame){
		"source name":  func(f *Frame) { f.Source = "test2" },
		"date":         func(f *Frame) { f.Date = dates.New(2024, 4, 22) },
		"meta value":   func(f *Frame) { f.Meta[0][1] = "61" },
		"meta key":     func(f *Frame) { f.Meta[0][0] = "window" },
		"extra meta":   func(f *Frame) { f.AddMeta("x", "y") },
		"string cell":  func(f *Frame) { f.Col("CC").Strs[3] = "DE" },
		"int cell":     func(f *Frame) { f.Col("AS").Ints[3]++ },
		"float cell":   func(f *Frame) { f.Col("Users").Floats[3] += 0.25 },
		"column name":  func(f *Frame) { f.Col("AS").Name = "ASN" },
		"row dropped":  func(f *Frame) { c := f.Col("CC"); c.Strs = c.Strs[:99] },
		"column order": func(f *Frame) { f.Cols[0], f.Cols[1] = f.Cols[1], f.Cols[0] },
	}
	for name, mutate := range mutations {
		f := hashFrame()
		mutate(f)
		if got := f.ContentHash(); got == base {
			t.Errorf("mutation %q did not change the content hash", name)
		}
	}
}

// TestContentHashNoLengthConfusion: shifting a byte between adjacent
// string cells must change the hash (the length-prefix framing at work).
func TestContentHashNoLengthConfusion(t *testing.T) {
	mk := func(a, b string) string {
		f := NewFrame("t", dates.New(2024, 1, 1))
		c := f.AddStrings("S")
		c.Strs = []string{a, b}
		return f.ContentHash()
	}
	if mk("ab", "c") == mk("a", "bc") {
		t.Fatal("concatenation ambiguity: cell boundaries are not framed")
	}
}

// TestETagVariants pins the validator format: quoted, variant-suffixed,
// distinct per representation of the same content.
func TestETagVariants(t *testing.T) {
	h := hashFrame().ContentHash()
	csv, gz, jsn := FormatETag(h, "csv"), FormatETag(h, "csv.gz"), FormatETag(h, "json")
	for _, tag := range []string{csv, gz, jsn} {
		if !strings.HasPrefix(tag, `"`) || !strings.HasSuffix(tag, `"`) {
			t.Errorf("etag %s is not a quoted entity tag", tag)
		}
		if strings.HasPrefix(tag, `W/`) {
			t.Errorf("etag %s is weak; frames are immutable, tags must be strong", tag)
		}
	}
	if csv == gz || csv == jsn || gz == jsn {
		t.Fatalf("representations share a strong validator: %s %s %s", csv, gz, jsn)
	}
	if got := FormatETag("abc", ""); got != `"abc"` {
		t.Errorf(`FormatETag("abc", "") = %s`, got)
	}
	if got := FormatETag("abc", "csv"); got != `"abc-csv"` {
		t.Errorf(`FormatETag("abc", "csv") = %s`, got)
	}
}

func BenchmarkContentHash(b *testing.B) {
	f := hashFrame()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.ContentHash()
	}
}
