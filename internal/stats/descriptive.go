// Package stats implements the statistical machinery the paper's validation
// toolkit is built on: Pearson / Spearman / Kendall-Tau correlations, OLS
// linear regression with confidence and prediction intervals, log-log
// elasticity fits, two-sample Kolmogorov–Smirnov distances, empirical CDFs,
// and an approximation of the Maximal Information Coefficient (MIC).
//
// Everything is implemented from scratch on the standard library, favoring
// numerical robustness (compensated summation where it matters) and
// explicit handling of ties, which are pervasive in per-organization user
// share data.
package stats

import (
	"math"
	"sort"
)

// Sum returns the sum of xs using Kahan compensated summation.
func Sum(xs []float64) float64 {
	var sum, c float64
	for _, x := range xs {
		y := x - c
		t := sum + y
		c = (t - sum) - y
		sum = t
	}
	return sum
}

// SumMap adds a string-keyed map's values in sorted key order. Float
// addition is not associative, so summing in map-iteration order would
// make results differ in the last bits from run to run; every normalizer
// in the measurement simulators goes through here (or sorts the same way)
// to keep whole-pipeline outputs bit-reproducible.
func SumMap(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]float64, len(keys))
	for i, k := range keys {
		vals[i] = m[k]
	}
	return Sum(vals)
}

// NormalizeMap scales m in place so its values sum to 1, using SumMap's
// deterministic ordering. Maps with a non-positive total pass through
// unchanged. Returns m for convenience.
func NormalizeMap(m map[string]float64) map[string]float64 {
	total := SumMap(m)
	if total <= 0 {
		return m
	}
	for k := range m {
		m[k] /= total
	}
	return m
}

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (type-7, the R/NumPy default).
// It returns NaN for empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Median returns the median of xs.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Normalize scales xs so it sums to 1 and returns the result as a new
// slice. If the sum is zero it returns a zero slice of the same length.
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	total := Sum(xs)
	if total == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = x / total
	}
	return out
}

// CoverCount returns the minimum number of the largest shares needed for
// their sum to reach frac of the total. This is the paper's "number of
// organizations needed to cover 95% of the population" metric (§6).
// It returns 0 when the total mass is zero.
func CoverCount(shares []float64, frac float64) int {
	s := append([]float64(nil), shares...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	total := Sum(s)
	if total <= 0 {
		return 0
	}
	target := frac * total
	var cum float64
	for i, v := range s {
		cum += v
		if cum >= target {
			return i + 1
		}
	}
	return len(s)
}
