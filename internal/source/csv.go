package source

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/dates"
)

// The CSV codec serializes a Frame as:
//
//	#source,<name>,date,<YYYY-MM-DD>[,<metaKey>,<metaValue>...]
//	<Name>:<kind>,<Name>:<kind>,...
//	<cells...>
//
// The typed header makes the format self-describing, so ReadCSV
// reconstructs the exact column kinds and a re-serialize is
// byte-identical (floats are written in shortest-round-trip form, which
// is idempotent under parse → format).

// csvMagic starts the metadata record of every frame CSV.
const csvMagic = "#source"

// WriteCSV serializes the frame. The output is exactly what
// encoding/csv's Writer produces for the same records (comma separator,
// LF line endings, its quoting rule), rendered by appending cells into
// a pooled buffer handed to w in one Write (textbuf.go).
func (f *Frame) WriteCSV(w io.Writer) error { return writeText(w, f.appendCSV) }

// CSVBytes returns the bytes WriteCSV writes, in a new slice of exact
// size: a body a caller may keep.
func (f *Frame) CSVBytes() ([]byte, error) { return cloneText(f.appendCSV) }

// appendCSV is the CSV encoder: it appends the frame's CSV encoding to
// b, or appends nothing and returns the frame's Check error.
func (f *Frame) appendCSV(b []byte) ([]byte, error) {
	if err := f.Check(); err != nil {
		return b, err
	}
	b = append(b, csvMagic+","...)
	b = appendCSVField(b, f.Source)
	b = append(b, ",date,"...)
	b = appendCSVField(b, f.Date.String())
	for _, kv := range f.Meta {
		b = append(b, ',')
		b = appendCSVField(b, kv[0])
		b = append(b, ',')
		b = appendCSVField(b, kv[1])
	}
	b = append(b, '\n')
	for i, c := range f.Cols {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendCSVField(b, c.Name+":"+c.Kind.String())
	}
	b = append(b, '\n')
	for r := 0; r < f.Rows(); r++ {
		for i, c := range f.Cols {
			if i > 0 {
				b = append(b, ',')
			}
			switch c.Kind {
			case String:
				b = appendCSVField(b, c.Strs[r])
			case Int:
				b = strconv.AppendInt(b, c.Ints[r], 10)
			default:
				b = strconv.AppendFloat(b, c.Floats[r], 'g', -1, 64)
			}
		}
		b = append(b, '\n')
	}
	return b, nil
}

// appendCSVField appends one field under encoding/csv's quoting rule: a
// field is quoted only when it contains the separator, a quote, CR or
// LF, begins with a Unicode space, or is exactly `\.`; inside quotes an
// embedded quote is doubled and every other byte is copied.
func appendCSVField(b []byte, s string) []byte {
	if !csvNeedsQuotes(s) {
		return append(b, s...)
	}
	b = append(b, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		b = append(b, s[:i+1]...)
		b = append(b, '"')
		s = s[i+1:]
	}
	b = append(b, s...)
	return append(b, '"')
}

func csvNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// ReadCSV parses a frame written by WriteCSV.
func ReadCSV(r io.Reader) (*Frame, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // metadata and data records have different widths

	meta, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("source: reading frame metadata: %w", err)
	}
	if len(meta) < 4 || meta[0] != csvMagic || meta[2] != "date" {
		return nil, fmt.Errorf("source: missing %s metadata record", csvMagic)
	}
	if len(meta)%2 != 0 {
		return nil, fmt.Errorf("source: odd metadata record length %d", len(meta))
	}
	d, err := dates.Parse(meta[3])
	if err != nil {
		return nil, fmt.Errorf("source: bad frame date: %w", err)
	}
	f := NewFrame(meta[1], d)
	for i := 4; i < len(meta); i += 2 {
		f.AddMeta(meta[i], meta[i+1])
	}

	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("source: reading frame header: %w", err)
	}
	for _, h := range header {
		name, tag, ok := cutLast(h, ':')
		if !ok {
			return nil, fmt.Errorf("source: header column %q has no kind tag", h)
		}
		kind, err := parseKind(tag)
		if err != nil {
			return nil, err
		}
		f.addCol(name, kind)
	}

	cr.FieldsPerRecord = len(f.Cols)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("source: reading frame row: %w", err)
		}
		for i := range f.Cols {
			if err := f.Cols[i].appendCell(rec[i]); err != nil {
				return nil, err
			}
		}
	}
	if err := f.Check(); err != nil {
		return nil, err
	}
	return f, nil
}

// cutLast splits s at the last occurrence of sep, so column names may
// themselves contain the separator ("% of Country:float").
func cutLast(s string, sep byte) (before, after string, ok bool) {
	i := strings.LastIndexByte(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+1:], true
}
