package source

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"
)

// checkFloatDigits compares one value's digit-table renders with the
// per-cell references: strconv's shortest 'g' form for CSV, and
// encoding/json's own output for every finite value.
func checkFloatDigits(t *testing.T, v float64) {
	t.Helper()
	x := makeFloatDigits(v)
	if got, want := x.appendCSV(nil), strconv.AppendFloat(nil, v, 'g', -1, 64); !bytes.Equal(got, want) {
		t.Errorf("csv %v (%#x): got %q, want %q", v, math.Float64bits(v), got, want)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if got := x.appendJSON(nil); !bytes.Equal(got, want) {
		t.Errorf("json %v (%#x): got %q, want %q", v, math.Float64bits(v), got, want)
	}
}

// TestFloatDigitsEdges covers the values where the layouts switch or
// the digits run out: signed zero, the extremes of the float64 range,
// each side of the 'g' form's exponent cutoffs (1e-4 and 1e6) and
// encoding/json's (1e-6 and 1e21), one- to three-digit exponents, and
// the non-finite values CSV writes as text.
func TestFloatDigitsEdges(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64,
		1e-7, 1e-6, 1e-5, 1e-4, 1e-3,
		999999, 1e6, 999999.5, 123456, 1234567,
		1e20, 1e21, 1e22, 123456789012345678901.0,
		1e-9, 1e-10, 1e-99, 1e-100, 1e99, 1e100,
		0.1, 0.5, 1, 10, 100.25, 1 / 3.0, 2 / 3.0 * 1e-5,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	vals = append(vals, textFloats...)
	for _, v := range vals {
		for _, u := range []float64{v, -v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1))} {
			checkFloatDigits(t, u)
		}
	}
}

// FuzzFloatDigits checks the digit-table renders of arbitrary float64
// bit patterns against strconv and encoding/json. CI runs a short -fuzz
// smoke on top of the seeds.
func FuzzFloatDigits(f *testing.F) {
	for _, v := range textFloats {
		f.Add(math.Float64bits(v))
	}
	for _, v := range nonFinite {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkFloatDigits(t, math.Float64frombits(bits))
	})
}
