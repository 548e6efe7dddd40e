package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestKSTwoSampleIdentical(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	approx(t, KSTwoSample(xs, xs), 0, 1e-12, "KS identical")
}

func TestKSTwoSampleDisjoint(t *testing.T) {
	xs := []float64{1, 2, 3}
	ys := []float64{10, 11, 12}
	approx(t, KSTwoSample(xs, ys), 1, 1e-12, "KS disjoint")
}

func TestKSTwoSampleKnown(t *testing.T) {
	// scipy.stats.ks_2samp([1,2,3,4],[3,4,5,6]).statistic = 0.5
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 4, 5, 6}
	approx(t, KSTwoSample(xs, ys), 0.5, 1e-12, "KS known")
}

func TestKSTwoSampleEmpty(t *testing.T) {
	if !math.IsNaN(KSTwoSample(nil, []float64{1})) {
		t.Fatal("KS with empty sample should be NaN")
	}
}

func TestMaxShareDiff(t *testing.T) {
	p := []float64{0.7, 0.2, 0.1}
	q := []float64{0.4, 0.5, 0.1}
	approx(t, MaxShareDiff(p, q), 0.3, 1e-12, "L-inf distance")
	approx(t, MaxShareDiff(p, p), 0, 1e-12, "identical")
}

func TestAlignShares(t *testing.T) {
	p := map[string]float64{"a": 0.6, "b": 0.4}
	q := map[string]float64{"b": 0.5, "c": 0.5}
	ps, qs, keys := AlignShares(p, q)
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Fatalf("keys = %v", keys)
	}
	wantP := []float64{0.6, 0.4, 0}
	wantQ := []float64{0, 0.5, 0.5}
	for i := range keys {
		approx(t, ps[i], wantP[i], 0, "aligned p")
		approx(t, qs[i], wantQ[i], 0, "aligned q")
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	approx(t, e.At(0), 0, 1e-12, "F(0)")
	approx(t, e.At(1), 0.25, 1e-12, "F(1)")
	approx(t, e.At(2), 0.75, 1e-12, "F(2)")
	approx(t, e.At(3), 1, 1e-12, "F(3)")
	approx(t, e.At(10), 1, 1e-12, "F(10)")
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{3, 1, 2, 2})
	xs, fs := e.Points()
	if len(xs) != 3 {
		t.Fatalf("distinct points = %d, want 3", len(xs))
	}
	approx(t, xs[1], 2, 0, "x point")
	approx(t, fs[1], 0.75, 1e-12, "F at duplicate")
	approx(t, fs[2], 1, 1e-12, "final F")
}

// Property: KS statistics are symmetric and within [0, 1].
func TestQuickKSSymmetricBounded(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		na, nb := 1+s.Intn(40), 1+s.Intn(40)
		a := make([]float64, na)
		b := make([]float64, nb)
		for i := range a {
			a[i] = s.Norm(0, 1)
		}
		for i := range b {
			b[i] = s.Norm(0.5, 1)
		}
		d1 := KSTwoSample(a, b)
		d2 := KSTwoSample(b, a)
		return d1 >= 0 && d1 <= 1 && math.Abs(d1-d2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the ECDF is monotone non-decreasing, and Points yields F at
// each distinct sample value.
func TestQuickECDFMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		n := 1 + s.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = s.Norm(0, 5)
		}
		e := NewECDF(xs)
		prev := -1.0
		for x := -15.0; x <= 15; x += 0.5 {
			v := e.At(x)
			if v < prev {
				return false
			}
			prev = v
		}
		ps, fs := e.Points()
		for i := range ps {
			if fs[i] != e.At(ps[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
