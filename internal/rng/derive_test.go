package rng

import (
	"math"
	"testing"
	"testing/quick"
)

// firstU64 draws the first value from a derived stream; taking the
// stream as a parameter makes it addressable for the pointer-receiver
// methods.
func firstU64(s Stream) uint64 { return s.Uint64() }

func TestDeriveReproducible(t *testing.T) {
	a := firstU64(New(9).Derive(1, 2, 3))
	b := firstU64(New(9).Derive(1, 2, 3))
	if a != b {
		t.Fatal("same (seed, keys) derivation not reproducible")
	}
}

func TestDeriveDoesNotAdvanceParent(t *testing.T) {
	r1 := New(7)
	r1.Derive(1, 2, 3)
	r2 := New(7)
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("Derive advanced the parent stream")
	}
}

func TestDeriveDistinctTuples(t *testing.T) {
	root := New(3)
	a := firstU64(root.Derive(1, 2))
	b := firstU64(root.Derive(2, 1))
	c := firstU64(root.Derive(1, 3))
	if a == b || a == c || b == c {
		t.Fatal("derivations with distinct key tuples collided")
	}
}

// Tuples of different lengths — including prefix relationships like
// (1) vs (1, 0) — must land on distinct streams, or a generator adding a
// trailing time key would alias its own persistent channel.
func TestDeriveLengthMatters(t *testing.T) {
	root := New(5)
	seen := map[uint64]string{}
	cases := []struct {
		name string
		keys []uint64
	}{
		{"k1", []uint64{1}},
		{"k1,0", []uint64{1, 0}},
		{"k1,0,0", []uint64{1, 0, 0}},
		{"k0,1", []uint64{0, 1}},
		{"k0", []uint64{0}},
		{"empty", nil},
	}
	for _, c := range cases {
		v := firstU64(root.Derive(c.keys...))
		if prev, ok := seen[v]; ok {
			t.Fatalf("tuples %s and %s derived colliding streams", prev, c.name)
		}
		seen[v] = c.name
	}
}

// Sweeping one key coordinate over a large range must not produce
// colliding streams.
func TestDeriveSweepDistinct(t *testing.T) {
	root := New(3)
	seen := map[uint64]bool{}
	for i := 0; i < 500; i++ {
		v := firstU64(root.Derive(7, uint64(i)))
		if seen[v] {
			t.Fatalf("Derive collision at index %d", i)
		}
		seen[v] = true
	}
}

// Mirror of TestFloat64Mean, but across derived streams: the first
// Float64 drawn from each of n per-key derivations must look uniform on
// [0,1). This is the property the generators rely on — each (entity, day)
// tuple contributes one fresh draw, not a long run from one stream.
func TestDeriveFirstDrawUniform(t *testing.T) {
	root := New(13)
	n := 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		s := root.Derive(uint64(i))
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
		sum += f
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("first-draw mean over derived streams = %v, want ~0.5", mean)
	}
}

// Mirror of TestNormMoments across derived streams: one normal deviate
// per (key) derivation should still have mean ~0 and variance ~1.
func TestDeriveFirstNormalMoments(t *testing.T) {
	root := New(19)
	n := 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		s := root.Derive(2, uint64(i))
		v := s.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean over derived streams = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance over derived streams = %v, want ~1", variance)
	}
}

// Bit-level balance: each of the 64 output bits of the first draw should
// be set about half the time across derivations.
func TestDeriveBitBalance(t *testing.T) {
	root := New(23)
	n := 20000
	var counts [64]int
	for i := 0; i < n; i++ {
		v := firstU64(root.Derive(uint64(i), 9))
		for b := 0; b < 64; b++ {
			if v&(1<<b) != 0 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		frac := float64(c) / float64(n)
		if math.Abs(frac-0.5) > 0.02 {
			t.Errorf("bit %d set fraction = %v, want ~0.5", b, frac)
		}
	}
}

// Derive and Split address disjoint stream families in practice: the
// derived stream for a tuple must differ from the labelled splits the
// generators also use off the hot path.
func TestDeriveSplitDisjoint(t *testing.T) {
	root := New(29)
	d := firstU64(root.Derive(1))
	s := root.Split("1").Uint64()
	if d == s {
		t.Fatal("Derive(1) collided with Split(\"1\")")
	}
}

func TestKeyStringDeterministicDistinct(t *testing.T) {
	if KeyString("US-FIX-01") != KeyString("US-FIX-01") {
		t.Fatal("KeyString not deterministic")
	}
	ids := []string{"", "US", "SU", "US-FIX-01", "US-FIX-02", "DE-MOB-01", "T1-TOR-00"}
	seen := map[uint64]string{}
	for _, id := range ids {
		k := KeyString(id)
		if prev, ok := seen[k]; ok {
			t.Fatalf("KeyString collision between %q and %q", prev, id)
		}
		seen[k] = id
	}
}

// Property: derivations with adjacent final keys never collide.
func TestQuickDeriveNoAdjacentCollision(t *testing.T) {
	root := New(31)
	f := func(k uint64) bool {
		return firstU64(root.Derive(5, k)) != firstU64(root.Derive(5, k+1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// The whole point of Derive is that the hot loops can mint per-tuple
// streams without touching the heap.
func TestDeriveAllocFree(t *testing.T) {
	root := New(37)
	sink := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		s := root.Derive(3, 12345, 678)
		sink += s.Float64()
	})
	if allocs != 0 {
		t.Fatalf("Derive allocated %v times per call, want 0", allocs)
	}
	_ = sink
}

func BenchmarkDerive(b *testing.B) {
	s := New(1)
	var acc uint64
	for i := 0; i < b.N; i++ {
		d := s.Derive(1, uint64(i), 42)
		acc ^= d.Uint64()
	}
	_ = acc
}

func BenchmarkSplitLabel(b *testing.B) {
	s := New(1)
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= s.Split("chan/US/US-FIX-01").Uint64()
	}
	_ = acc
}
