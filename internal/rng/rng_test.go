package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	a := root.Split("apnic")
	b := root.Split("cdn")
	if a.Uint64() == b.Uint64() {
		t.Fatal("split streams with different labels produced identical first value")
	}
	// Splitting must not advance the parent.
	r1 := New(7)
	r1.Split("x")
	r2 := New(7)
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("Split advanced the parent stream")
	}
}

func TestSplitReproducible(t *testing.T) {
	a := New(9).Split("label").Uint64()
	b := New(9).Split("label").Uint64()
	if a != b {
		t.Fatal("same (seed,label) split not reproducible")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(11)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(13)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(17)
	for i := 0; i < 10000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	s := New(19)
	n := 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPoissonMean(t *testing.T) {
	for _, lambda := range []float64{0.5, 5, 25, 100, 5000} {
		s := New(23)
		n := 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(s.Poisson(lambda))
		}
		mean := sum / float64(n)
		tol := 4 * math.Sqrt(lambda/float64(n)) // ~4 sigma of the sample mean
		if math.Abs(mean-lambda) > tol+0.5 {
			t.Errorf("Poisson(%v) sample mean = %v", lambda, mean)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	s := New(29)
	for i := 0; i < 1000; i++ {
		if s.Poisson(1000) < 0 {
			t.Fatal("negative Poisson deviate")
		}
	}
	if s.Poisson(0) != 0 || s.Poisson(-3) != 0 {
		t.Fatal("Poisson of non-positive lambda should be 0")
	}
}

func TestBinomialBounds(t *testing.T) {
	s := New(31)
	for i := 0; i < 2000; i++ {
		v := s.Binomial(1000, 0.01)
		if v < 0 || v > 1000 {
			t.Fatalf("Binomial out of bounds: %d", v)
		}
	}
	if s.Binomial(100, 0) != 0 {
		t.Fatal("Binomial(n, 0) != 0")
	}
	if s.Binomial(100, 1) != 100 {
		t.Fatal("Binomial(n, 1) != n")
	}
	if s.Binomial(0, 0.5) != 0 {
		t.Fatal("Binomial(0, p) != 0")
	}
}

func TestBinomialMean(t *testing.T) {
	s := New(37)
	var n int64 = 100000
	p := 0.01
	trials := 500
	var sum float64
	for i := 0; i < trials; i++ {
		sum += float64(s.Binomial(n, p))
	}
	mean := sum / float64(trials)
	want := float64(n) * p
	if math.Abs(mean-want)/want > 0.02 {
		t.Fatalf("Binomial(%d,%v) mean = %v, want ~%v", n, p, mean, want)
	}
}

func TestCategoricalDistribution(t *testing.T) {
	cum := Cumulative([]float64{1, 2, 7})
	s := New(41)
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[s.Categorical(cum)]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("category %d frequency = %v, want ~%v", i, got, want)
		}
	}
}

func TestCumulativeAllZero(t *testing.T) {
	if Cumulative([]float64{0, 0}) != nil {
		t.Fatal("Cumulative of zero weights should be nil")
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(43)
	p := s.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(53)
	for i := 0; i < 10000; i++ {
		if s.LogNormal(0, 1) <= 0 {
			t.Fatal("log-normal deviate not positive")
		}
	}
}

// Property: mix is a bijection-ish hash — distinct consecutive seeds never
// collide over a large sample (SplitMix64 guarantees a full-period bijection).
func TestQuickMixNoAdjacentCollision(t *testing.T) {
	f := func(seed uint64) bool {
		return mix(seed) != mix(seed+0x9e3779b97f4a7c15)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Categorical always returns an index within range for any
// weight vector with at least one positive entry.
func TestQuickCategoricalInRange(t *testing.T) {
	f := func(seed uint64, raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i := range raw {
			raw[i] = math.Abs(raw[i])
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) {
				raw[i] = 1
			}
		}
		raw[0] += 1 // ensure positive mass
		cum := Cumulative(raw)
		s := New(seed)
		for i := 0; i < 32; i++ {
			k := s.Categorical(cum)
			if k < 0 || k >= len(raw) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Uint64()
	}
}

func BenchmarkPoissonLarge(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Poisson(1e6)
	}
}

func TestRangeBounds(t *testing.T) {
	s := New(19)
	for i := 0; i < 10000; i++ {
		v := s.Range(-2, 3)
		if v < -2 || v >= 3 {
			t.Fatalf("Range(-2, 3) out of range: %v", v)
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	s := New(23)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	if f := float64(hits) / float64(n); math.Abs(f-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v, want ~0.3", f)
	}
	for i := 0; i < 1000; i++ {
		if s.Bool(0) || !s.Bool(1) {
			t.Fatal("Bool(0) must never and Bool(1) must always be true")
		}
	}
}
