package source

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/dates"
)

// frameJSON is the wire shape of the JSON codec: column-oriented, with
// explicit kinds, so the decode reconstructs the typed frame exactly.
type frameJSON struct {
	Source  string       `json:"source"`
	Date    string       `json:"date"`
	Rows    int          `json:"rows"`
	Meta    [][2]string  `json:"meta,omitempty"`
	Columns []columnJSON `json:"columns"`
}

type columnJSON struct {
	Name   string          `json:"name"`
	Kind   string          `json:"kind"`
	Values json.RawMessage `json:"values"`
}

// WriteJSON serializes the frame as column-oriented JSON. Like the CSV
// codec it is deterministic and idempotent: decode → re-encode is
// byte-identical.
//
// The bytes are exactly what a json.Encoder (HTML escaping on) writes
// for frameJSON, including the trailing newline: meta is omitted when
// empty, a frame without columns has "columns":null, and a nil value
// slice is null while an empty one is []. They are appended into a
// pooled buffer handed to w in one Write (textbuf.go). A NaN or ±Inf
// cell, which JSON cannot represent, is an error before any byte is
// written.
func (f *Frame) WriteJSON(w io.Writer) error { return writeText(w, f.appendJSON) }

// JSONBytes returns the bytes WriteJSON writes, in a new slice of exact
// size: a body a caller may keep.
func (f *Frame) JSONBytes() ([]byte, error) { return cloneText(f.appendJSON) }

// appendJSON is the JSON encoder: it appends the frame's JSON encoding
// to b, or appends nothing and returns the error that prevents it.
func (f *Frame) appendJSON(b []byte) ([]byte, error) {
	if err := f.Check(); err != nil {
		return b, err
	}
	for _, c := range f.Cols {
		if c.Kind == String || c.Kind == Int {
			continue
		}
		for _, v := range c.Floats {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return b, fmt.Errorf("source: encoding column %q: json: unsupported value: %s",
					c.Name, strconv.FormatFloat(v, 'g', -1, 64))
			}
		}
	}
	b = append(b, `{"source":`...)
	b = appendJSONString(b, f.Source)
	b = append(b, `,"date":`...)
	b = appendJSONString(b, f.Date.String())
	b = append(b, `,"rows":`...)
	b = strconv.AppendInt(b, int64(f.Rows()), 10)
	if len(f.Meta) > 0 {
		b = append(b, `,"meta":[`...)
		for i, kv := range f.Meta {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			b = appendJSONString(b, kv[0])
			b = append(b, ',')
			b = appendJSONString(b, kv[1])
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	if len(f.Cols) == 0 {
		return append(b, `,"columns":null}`+"\n"...), nil
	}
	b = append(b, `,"columns":[`...)
	for i, c := range f.Cols {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":`...)
		b = appendJSONString(b, c.Name)
		b = append(b, `,"kind":`...)
		b = appendJSONString(b, c.Kind.String())
		b = append(b, `,"values":`...)
		var isNil bool
		switch c.Kind {
		case String:
			isNil = c.Strs == nil
		case Int:
			isNil = c.Ints == nil
		default:
			isNil = c.Floats == nil
		}
		if isNil {
			b = append(b, "null}"...)
			continue
		}
		b = append(b, '[')
		for r, n := 0, c.Len(); r < n; r++ {
			if r > 0 {
				b = append(b, ',')
			}
			switch c.Kind {
			case String:
				b = appendJSONString(b, c.Strs[r])
			case Int:
				b = strconv.AppendInt(b, c.Ints[r], 10)
			default:
				b = appendJSONFloat(b, c.Floats[r])
			}
		}
		b = append(b, "]}"...)
	}
	return append(b, "]}\n"...), nil
}

// appendJSONFloat formats a finite float the way encoding/json does
// (ES6 number-to-string): shortest round-trip digits in plain notation,
// switching to an exponent below 1e-6 or from 1e21 up, with a
// single-digit negative exponent unpadded ("1e-7", not "1e-07").
func appendJSONFloat(b []byte, v float64) []byte {
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// jsonSafe marks the ASCII bytes encoding/json copies into a string
// verbatim with HTML escaping on: printable ASCII except '"', '\\',
// '<', '>' and '&'.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// appendJSONString appends s as a JSON string literal, escaped exactly
// as encoding/json escapes it (HTML-safe): the common all-safe-ASCII
// string is one copy.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= utf8.RuneSelf || !jsonSafe[c] {
			return append(appendJSONEscaped(b, s, i), '"')
		}
	}
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONEscaped appends s, whose bytes before i need no escaping,
// with encoding/json's escapes: the short forms for '"', '\\', \b, \f,
// \n, \r and \t; \u00XX for other control bytes and <, >, &; \u2028 and
// \u2029 for the JavaScript line terminators; and \ufffd for each byte
// of invalid UTF-8.
func appendJSONEscaped(b []byte, s string, i int) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}

// ReadJSON parses a frame written by WriteJSON.
func ReadJSON(r io.Reader) (*Frame, error) {
	var in frameJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("source: decoding frame JSON: %w", err)
	}
	d, err := dates.Parse(in.Date)
	if err != nil {
		return nil, fmt.Errorf("source: bad frame date: %w", err)
	}
	f := NewFrame(in.Source, d)
	f.Meta = in.Meta
	for _, cj := range in.Columns {
		kind, err := parseKind(cj.Kind)
		if err != nil {
			return nil, err
		}
		c := f.addCol(cj.Name, kind)
		switch kind {
		case String:
			if err := json.Unmarshal(cj.Values, &c.Strs); err != nil {
				return nil, fmt.Errorf("source: column %q: %w", cj.Name, err)
			}
		case Int:
			if err := json.Unmarshal(cj.Values, &c.Ints); err != nil {
				return nil, fmt.Errorf("source: column %q: %w", cj.Name, err)
			}
		default:
			if err := json.Unmarshal(cj.Values, &c.Floats); err != nil {
				return nil, fmt.Errorf("source: column %q: %w", cj.Name, err)
			}
		}
	}
	if err := f.Check(); err != nil {
		return nil, err
	}
	return f, nil
}
