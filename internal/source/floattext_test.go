package source

import (
	"encoding/json"
	"math"
	"strconv"
	"testing"

	"repro/internal/dates"
)

// checkFloatDigits renders v as the one cell of a float column through
// both text encoders and compares the cell with the per-value
// references: strconv's shortest 'g' form for CSV, and encoding/json's
// own output for every finite value. JSON must refuse NaN and Inf
// without rendering anything.
func checkFloatDigits(t *testing.T, v float64) {
	t.Helper()
	f := NewFrame("x", dates.New(2024, 1, 1))
	f.AddFloats("v").Floats = []float64{v}

	csv, err := f.CSVBytes()
	if err != nil {
		t.Fatalf("csv %v (%#x): %v", v, math.Float64bits(v), err)
	}
	want := "#source,x,date,2024-01-01\nv:float\n" + strconv.FormatFloat(v, 'g', -1, 64) + "\n"
	if string(csv) != want {
		t.Errorf("csv %v (%#x): got %q, want %q", v, math.Float64bits(v), csv, want)
	}

	body, err := f.JSONBytes()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if err == nil || body != nil {
			t.Errorf("json %v: got %q, %v; want no body and an error", v, body, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("json %v (%#x): %v", v, math.Float64bits(v), err)
	}
	num, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	want = `{"source":"x","date":"2024-01-01","rows":1,"columns":[{"name":"v","kind":"float","values":[` +
		string(num) + "]}]}\n"
	if string(body) != want {
		t.Errorf("json %v (%#x): got %q, want %q", v, math.Float64bits(v), body, want)
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

// FuzzFloatDigits checks the float cells the text encoders render from
// arbitrary float64 bit patterns against strconv and encoding/json.
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
