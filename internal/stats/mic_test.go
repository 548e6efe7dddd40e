package stats

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func micSample(s *rng.Stream, n int, f func(x float64) float64, noise float64) ([]float64, []float64) {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = s.Range(0, 1)
		ys[i] = f(xs[i]) + s.Norm(0, noise)
	}
	return xs, ys
}

func TestMICLinearNoiseless(t *testing.T) {
	s := rng.New(1)
	xs, ys := micSample(s, 400, func(x float64) float64 { return 2*x + 1 }, 0)
	if v := MIC(xs, ys); v < 0.9 {
		t.Fatalf("MIC of noiseless linear = %v, want ≈1", v)
	}
}

func TestMICNonlinearNoiseless(t *testing.T) {
	// MIC's raison d'être: detects non-monotone functional relationships
	// that Pearson misses entirely.
	s := rng.New(2)
	xs, ys := micSample(s, 400, func(x float64) float64 { return math.Sin(4 * math.Pi * x) }, 0)
	micV := MIC(xs, ys)
	pear := math.Abs(Pearson(xs, ys))
	if micV < 0.6 {
		t.Fatalf("MIC of noiseless sine = %v, want high", micV)
	}
	if micV <= pear {
		t.Fatalf("MIC (%v) should beat |Pearson| (%v) on a sine", micV, pear)
	}
}

func TestMICIndependent(t *testing.T) {
	s := rng.New(3)
	n := 500
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = s.Float64()
		ys[i] = s.Float64()
	}
	if v := MIC(xs, ys); v > 0.35 {
		t.Fatalf("MIC of independent data = %v, want low", v)
	}
}

func TestMICNoiseMonotone(t *testing.T) {
	// More noise must not increase MIC (up to sampling wobble).
	s := rng.New(4)
	xs1, ys1 := micSample(s.Split("clean"), 400, func(x float64) float64 { return x }, 0.01)
	xs2, ys2 := micSample(s.Split("noisy"), 400, func(x float64) float64 { return x }, 1.0)
	clean := MIC(xs1, ys1)
	noisy := MIC(xs2, ys2)
	if noisy > clean {
		t.Fatalf("noisy MIC (%v) exceeds clean MIC (%v)", noisy, clean)
	}
}

func TestMICBoundsAndEdgeCases(t *testing.T) {
	if !math.IsNaN(MIC([]float64{1, 2}, []float64{1, 2})) {
		t.Fatal("MIC with < 4 points should be NaN")
	}
	if !math.IsNaN(MIC([]float64{1, 2, 3}, []float64{1, 2})) {
		t.Fatal("MIC with mismatched lengths should be NaN")
	}
	s := rng.New(5)
	xs, ys := micSample(s, 100, func(x float64) float64 { return x * x }, 0.1)
	v := MIC(xs, ys)
	if v < 0 || v > 1 {
		t.Fatalf("MIC out of [0,1]: %v", v)
	}
}

func TestMICSymmetry(t *testing.T) {
	s := rng.New(6)
	xs, ys := micSample(s, 200, func(x float64) float64 { return x * x }, 0.05)
	a := MIC(xs, ys)
	b := MIC(ys, xs)
	// Equal-frequency binning on both axes makes the approximation
	// symmetric up to tie handling.
	if math.Abs(a-b) > 0.15 {
		t.Fatalf("MIC asymmetry too large: %v vs %v", a, b)
	}
}

func TestEqualFreqBins(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	bins := equalFreqBins(xs, 4)
	counts := map[int]int{}
	for _, b := range bins {
		if b < 0 || b >= 4 {
			t.Fatalf("bin out of range: %d", b)
		}
		counts[b]++
	}
	for b := 0; b < 4; b++ {
		if counts[b] == 0 {
			t.Fatalf("empty bin %d in equal-frequency binning of uniform data", b)
		}
	}
	// Identical values always share a bin.
	tied := []float64{5, 5, 5, 5, 1, 2}
	tb := equalFreqBins(tied, 3)
	for i := 1; i < 4; i++ {
		if tb[i] != tb[0] {
			t.Fatalf("tied values split across bins: %v", tb)
		}
	}
}

func BenchmarkMIC300(b *testing.B) {
	s := rng.New(1)
	xs, ys := micSample(s, 300, func(x float64) float64 { return x * x }, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MIC(xs, ys)
	}
}

func TestMICBudgetMonotoneInExponent(t *testing.T) {
	// Finer grids can only find more information on a functional
	// relationship (up to sampling wobble).
	s := rng.New(9)
	xs, ys := micSample(s, 300, func(x float64) float64 { return x * x }, 0.02)
	lo := MICBudget(xs, ys, 0.4)
	hi := MICBudget(xs, ys, 0.8)
	if hi < lo-0.05 {
		t.Fatalf("MIC at exponent 0.8 (%v) should not fall below exponent 0.4 (%v)", hi, lo)
	}
	if MIC(xs, ys) != MICBudget(xs, ys, 0.6) {
		t.Fatal("MIC must equal MICBudget at the canonical exponent")
	}
}
