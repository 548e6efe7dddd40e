package source

import (
	"math"
	"strconv"
)

// The digit table renders a frame's float cells without re-running
// strconv's shortest-float search on every encode. Both text codecs
// print a float from the same shortest round-trip decimal digits and
// differ only in layout: CSV uses strconv's 'g' form, JSON uses
// encoding/json's (plain notation from 1e-6 up to 1e21, exponent form
// outside). So the digits are searched for once per cell and kept with
// the cell's decimal exponent and sign; each encode then lays them out
// with byte copies. An Artifact builds the table at most once while its
// day is resident (Artifact.WriteCSV), and it is evicted with the day.

// floatDigits is one float cell's shortest round-trip decimal form: the
// value is ±0.d[0]d[1]…d[n-1] × 10^dp. A non-finite cell keeps its 'g'
// text ("NaN", "+Inf", "-Inf") in d instead. 20 bytes per cell.
type floatDigits struct {
	d  [17]byte // ASCII digits, or a non-finite cell's text
	n  uint8    // len(d) in use (digitsLen), plus the flags
	dp int16    // decimal point position
}

const (
	digitsLen     = 0x1f // mask of n's length bits
	digitsLiteral = 0x40 // d holds the cell's text verbatim
	digitsNeg     = 0x80 // the value is negative (or -0)
)

// zeros pads plain-notation floats: encoding/json writes up to 20
// trailing zeros (1e20) and up to 5 leading ones after "0." (1e-6).
const zeros = "00000000000000000000"

// digitTable holds the digits of every float cell of one frame, indexed
// by column then row; non-float columns have a nil entry. It is
// read-only once built and matches exactly the frame it was built from.
type digitTable [][]floatDigits

// newDigitTable formats every float cell of f once.
func newDigitTable(f *Frame) digitTable {
	t := make(digitTable, len(f.Cols))
	for i, c := range f.Cols {
		if c.Kind == String || c.Kind == Int {
			continue
		}
		col := make([]floatDigits, len(c.Floats))
		for r, v := range c.Floats {
			col[r] = makeFloatDigits(v)
		}
		t[i] = col
	}
	return t
}

// makeFloatDigits takes v's digits and exponent from its shortest 'e'
// form, "-d.ddde±xx", the one strconv call the cell costs.
func makeFloatDigits(v float64) floatDigits {
	var x floatDigits
	if math.IsNaN(v) || math.IsInf(v, 0) {
		x.n = uint8(len(strconv.AppendFloat(x.d[:0], v, 'g', -1, 64))) | digitsLiteral
		return x
	}
	var buf [32]byte
	s := strconv.AppendFloat(buf[:0], v, 'e', -1, 64)
	if s[0] == '-' {
		x.n = digitsNeg
		s = s[1:]
	}
	n := copy(x.d[:], s[:1])
	i := 1
	if s[i] == '.' {
		for i++; s[i] != 'e'; i++ {
			x.d[n] = s[i]
			n++
		}
	}
	exp := 0
	for _, c := range s[i+2:] {
		exp = exp*10 + int(c-'0')
	}
	if s[i+1] == '-' {
		exp = -exp
	}
	x.n |= uint8(n)
	x.dp = int16(exp + 1)
	return x
}

// appendCSV appends the cell as strconv.AppendFloat(b, v, 'g', -1, 64)
// does: exponent form when the decimal exponent is below -4 or at least
// 6 (the shortest-precision rule), with at least two exponent digits.
func (x *floatDigits) appendCSV(b []byte) []byte {
	if x.n&digitsLiteral != 0 {
		return append(b, x.d[:x.n&digitsLen]...)
	}
	if exp := int(x.dp) - 1; exp < -4 || exp >= 6 {
		return x.appendExp(b, exp, true)
	}
	return x.appendPlain(b)
}

// appendJSON appends the cell as encoding/json writes a float64:
// exponent form below 1e-6 or from 1e21 up, with a one-digit negative
// exponent unpadded ("1e-7"). encoding/json tests the float against
// 1e-6 and 1e21, this the digits' decimal exponent; they agree because
// a shortest form lies on the same side of each power of ten as its
// float. The caller has rejected non-finite cells, which JSON cannot
// represent.
func (x *floatDigits) appendJSON(b []byte) []byte {
	if exp := int(x.dp) - 1; exp < -6 || exp >= 21 {
		return x.appendExp(b, exp, false)
	}
	return x.appendPlain(b)
}

// appendExp appends "-d.ddde±xx"; pad zero-pads a one-digit exponent.
func (x *floatDigits) appendExp(b []byte, exp int, pad bool) []byte {
	n := int(x.n & digitsLen)
	if x.n&digitsNeg != 0 {
		b = append(b, '-')
	}
	b = append(b, x.d[0])
	if n > 1 {
		b = append(b, '.')
		b = append(b, x.d[1:n]...)
	}
	sign := byte('+')
	if exp < 0 {
		sign, exp = '-', -exp
	}
	b = append(b, 'e', sign)
	switch {
	case exp < 10:
		if pad {
			b = append(b, '0')
		}
		return append(b, byte('0'+exp))
	case exp < 100:
		return append(b, byte('0'+exp/10), byte('0'+exp%10))
	}
	return append(b, byte('0'+exp/100), byte('0'+exp/10%10), byte('0'+exp%10))
}

// appendPlain appends the digits in positional notation with no
// exponent, as strconv's 'f' form at the shortest precision.
func (x *floatDigits) appendPlain(b []byte) []byte {
	n, dp := int(x.n&digitsLen), int(x.dp)
	if x.n&digitsNeg != 0 {
		b = append(b, '-')
	}
	switch {
	case dp <= 0:
		b = append(b, '0', '.')
		b = append(b, zeros[:-dp]...)
		return append(b, x.d[:n]...)
	case dp >= n:
		b = append(b, x.d[:n]...)
		return append(b, zeros[:dp-n]...)
	}
	b = append(b, x.d[:dp]...)
	b = append(b, '.')
	return append(b, x.d[dp:n]...)
}
