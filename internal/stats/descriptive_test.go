package stats

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, name string) {
	t.Helper()
	if math.IsNaN(want) {
		if !math.IsNaN(got) {
			t.Errorf("%s = %v, want NaN", name, got)
		}
		return
	}
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, Mean(xs), 5, 1e-12, "Mean")
}

func TestMeanEmpty(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestSumKahan(t *testing.T) {
	// 1 + 1e-16 repeated: naive summation loses the small terms.
	xs := make([]float64, 0, 1001)
	xs = append(xs, 1)
	for i := 0; i < 1000; i++ {
		xs = append(xs, 1e-16)
	}
	got := Sum(xs)
	want := 1 + 1000e-16
	if math.Abs(got-want) > 1e-18 {
		t.Fatalf("compensated sum = %.20f, want %.20f", got, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	approx(t, Quantile(xs, 0), 1, 0, "q0")
	approx(t, Quantile(xs, 1), 5, 0, "q1")
	approx(t, Quantile(xs, 0.5), 3, 0, "median")
	approx(t, Quantile(xs, 0.25), 2, 0, "q25")
	approx(t, Quantile(xs, 0.1), 1.4, 1e-12, "q10 interpolated")
}

func TestQuantileUnsortedInput(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	approx(t, Median(xs), 3, 0, "median of unsorted")
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{1, 3})
	approx(t, out[0], 0.25, 1e-12, "normalize[0]")
	approx(t, out[1], 0.75, 1e-12, "normalize[1]")
	zero := Normalize([]float64{0, 0})
	if zero[0] != 0 || zero[1] != 0 {
		t.Fatal("Normalize of zero vector should be zero vector")
	}
}

func TestCoverCount(t *testing.T) {
	// 50/30/15/5: 95% needs 3 orgs, 50% needs 1, 100% needs all 4.
	shares := []float64{5, 50, 15, 30}
	if got := CoverCount(shares, 0.95); got != 3 {
		t.Errorf("CoverCount 95%% = %d, want 3", got)
	}
	if got := CoverCount(shares, 0.5); got != 1 {
		t.Errorf("CoverCount 50%% = %d, want 1", got)
	}
	if got := CoverCount(shares, 1.0); got != 4 {
		t.Errorf("CoverCount 100%% = %d, want 4", got)
	}
	if got := CoverCount(nil, 0.95); got != 0 {
		t.Errorf("CoverCount empty = %d, want 0", got)
	}
	if got := CoverCount([]float64{0, 0}, 0.95); got != 0 {
		t.Errorf("CoverCount zero mass = %d, want 0", got)
	}
}

// Property: CoverCount is monotone in the coverage fraction.
func TestQuickCoverCountMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i := range raw {
			raw[i] = math.Abs(raw[i])
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) {
				raw[i] = 1
			}
		}
		return CoverCount(raw, 0.5) <= CoverCount(raw, 0.95)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Normalize output sums to ~1 for any vector with positive mass.
func TestQuickNormalizeSums(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i := range raw {
			raw[i] = math.Abs(raw[i])
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) || raw[i] > 1e12 {
				raw[i] = 1
			}
		}
		raw[0] += 1
		s := Sum(Normalize(raw))
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// SumMap must add in sorted key order whatever order the map iterates
// in, so its result is bit-identical from call to call.
func TestSumMapSortedOrder(t *testing.T) {
	m := map[string]float64{}
	vals := make([]float64, 0, 50)
	for i := 0; i < 50; i++ {
		v := math.Pow(10, float64(i%17-8)) * float64(i+1)
		m[fmt.Sprintf("k%02d", i)] = v
		vals = append(vals, v)
	}
	want := Sum(vals)
	for rep := 0; rep < 20; rep++ {
		if got := SumMap(m); got != want {
			t.Fatalf("SumMap = %v, want %v (sorted-key Sum)", got, want)
		}
	}
	if got := SumMap(nil); got != 0 {
		t.Fatalf("SumMap(nil) = %v, want 0", got)
	}
}

func TestNormalizeMap(t *testing.T) {
	m := map[string]float64{"a": 1, "b": 3}
	NormalizeMap(m)
	approx(t, m["a"], 0.25, 1e-12, "a share")
	approx(t, m["b"], 0.75, 1e-12, "b share")

	for _, in := range []map[string]float64{
		{"a": 0, "b": 0},
		{"a": -1, "b": 0.5},
	} {
		a, b := in["a"], in["b"]
		out := NormalizeMap(in)
		if out["a"] != a || out["b"] != b {
			t.Errorf("non-positive total rescaled: got %v, want a=%v b=%v", out, a, b)
		}
	}
}
