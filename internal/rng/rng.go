// Package rng provides a deterministic, splittable pseudo-random number
// generator used by every dataset generator in this repository.
//
// Reproducibility is a hard requirement: the paper's experiments are
// re-generated from synthetic data, and results must be byte-identical
// across runs and platforms. The generator is a SplitMix64 core with
// labelled sub-streams: a stream derived with Split("apnic") is
// statistically independent from one derived with Split("cdn"), yet both
// are fully determined by the root seed. This lets each measurement
// simulator observe the same ground-truth world through independent noise.
package rng

import (
	"hash/fnv"
	"math"
)

// Stream is a deterministic pseudo-random stream. The zero value is a valid
// stream seeded with 0; prefer New or Split for anything real.
type Stream struct {
	state uint64
}

// New returns a stream seeded with seed.
func New(seed uint64) *Stream {
	return &Stream{state: seed}
}

// Split derives an independent child stream from the parent's seed and a
// label. Splitting does not advance the parent. The same (parent seed,
// label) pair always yields the same child, which is what makes whole
// experiment pipelines reproducible module-by-module.
func (s *Stream) Split(label string) *Stream {
	h := fnv.New64a()
	// Mix the parent state in first so different parents produce
	// different children for the same label.
	var buf [8]byte
	st := s.state
	for i := 0; i < 8; i++ {
		buf[i] = byte(st >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(label))
	return &Stream{state: mix(h.Sum64())}
}

// golden is the SplitMix64 increment (2^64 / phi), also used to decorrelate
// integer derivation keys before mixing.
const golden = 0x9e3779b97f4a7c15

// Derive returns a child stream keyed by a tuple of integers. It is the
// allocation-free counterpart of Split for hot per-(entity, day) loops:
// callers precompute a uint64 key per entity (KeyString at construction
// time) and derive with (channel, entityKey..., dayNumber) tuples instead
// of formatting a label. Like Split, Derive never advances the parent, and
// the same (parent seed, key tuple) always yields the same child.
//
// The child is returned by value so the whole derivation stays on the
// stack; distinct tuples (including tuples of different lengths) yield
// statistically independent streams via double SplitMix64 finalization.
func (s *Stream) Derive(keys ...uint64) Stream {
	st := s.state
	for _, k := range keys {
		st = mix(st ^ mix(k+golden))
	}
	return Stream{state: st}
}

// KeyString hashes an identifier into a derivation key for Derive.
// Intended for construction time: hash each country code / org ID once,
// store the key, and the hot loops never touch strings again.
func KeyString(id string) uint64 {
	// FNV-1a, finalized with the SplitMix64 mixer so that short ASCII
	// identifiers are spread over the full 64-bit key space.
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return mix(h)
}

// mix is the SplitMix64 finalizer; it turns correlated inputs into
// well-distributed seeds.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Stream) Uint64() uint64 {
	s.state += golden
	return mix(s.state)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling is overkill here;
	// modulo bias at 64 bits is negligible for simulation workloads.
	return int(s.Uint64() % uint64(n))
}

// Range returns a uniform float64 in [lo, hi).
func (s *Stream) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	return s.Float64() < p
}

// NormFloat64 returns a standard normal deviate (Marsaglia polar method).
func (s *Stream) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Norm returns a normal deviate with the given mean and standard deviation.
func (s *Stream) Norm(mean, stddev float64) float64 {
	return mean + stddev*s.NormFloat64()
}

// LogNormal returns a log-normal deviate where the underlying normal has
// mean mu and standard deviation sigma.
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Norm(mu, sigma))
}

// Poisson returns a Poisson(lambda) deviate. For small lambda it uses
// Knuth's product method; for large lambda a normal approximation, which
// is accurate enough for simulated impression counts in the millions.
func (s *Stream) Poisson(lambda float64) int64 {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := int64(0)
		p := 1.0
		for {
			p *= s.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := s.Norm(lambda, math.Sqrt(lambda))
	if v < 0 {
		return 0
	}
	return int64(v + 0.5)
}

// Binomial returns a Binomial(n, p) deviate. Exact inversion for small n,
// normal approximation (with continuity correction) otherwise. Used to
// model "1% uniform sampling of requests" and ad-impression draws.
func (s *Stream) Binomial(n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n < 64 {
		var k int64
		for i := int64(0); i < n; i++ {
			if s.Float64() < p {
				k++
			}
		}
		return k
	}
	mean := float64(n) * p
	sd := math.Sqrt(float64(n) * p * (1 - p))
	if sd < 1e-9 {
		return int64(mean + 0.5)
	}
	v := s.Norm(mean, sd)
	switch {
	case v < 0:
		return 0
	case v > float64(n):
		return n
	}
	return int64(v + 0.5)
}

// Categorical samples an index from cumulative weights cum (non-decreasing,
// ending at 1.0), as produced by Cumulative.
func (s *Stream) Categorical(cum []float64) int {
	u := s.Float64()
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Cumulative converts unnormalized non-negative weights into a cumulative
// distribution suitable for Categorical. It returns nil if all weights are
// zero.
func Cumulative(weights []float64) []float64 {
	cum := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		sum += w
		cum[i] = sum
	}
	if sum == 0 {
		return nil
	}
	for i := range cum {
		cum[i] /= sum
	}
	return cum
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
