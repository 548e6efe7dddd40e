package stats

import (
	"math"
	"sort"
)

// MIC returns an approximation of the Maximal Information Coefficient of
// Reshef et al. (2011), the statistic the paper uses in §5.3 to measure
// how much information APNIC user estimates (optionally combined with IXP
// capacity) carry about CDN traffic volume when the relationship need not
// be linear.
//
// The exact MINE algorithm searches all grid partitions; this
// implementation uses the standard equal-frequency-binning approximation:
// for every grid shape (a, b) with a*b ≤ n^0.6, discretize each axis into
// equal-frequency bins, compute the mutual information of the discretized
// pair, normalize by log(min(a, b)), and take the maximum over shapes.
// The approximation preserves MIC's defining properties — ≈1 for
// noiseless functional relationships (linear or not), ≈0 for independent
// data — which is all the paper's comparison needs.
//
// It returns NaN for fewer than four points or mismatched input lengths.
func MIC(xs, ys []float64) float64 {
	return MICBudget(xs, ys, 0.6)
}

// MICBudget is MIC with an explicit grid-budget exponent: grids of shape
// (a, b) with a*b ≤ n^exponent are searched. The canonical value is 0.6;
// the exponent is exposed for the ablation study of grid resolution.
func MICBudget(xs, ys []float64, exponent float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 4 {
		return math.NaN()
	}
	// B(n) = n^exponent, floored at 4 so that at least 2x2 grids are
	// always searched.
	budget := int(math.Pow(float64(n), exponent))
	if budget < 4 {
		budget = 4
	}
	best := 0.0
	for a := 2; a <= budget/2; a++ {
		maxB := budget / a
		if maxB < 2 {
			break
		}
		xbins := equalFreqBins(xs, a)
		for b := 2; b <= maxB; b++ {
			ybins := equalFreqBins(ys, b)
			mi := mutualInformation(xbins, ybins, a, b)
			norm := math.Log(float64(min(a, b)))
			if norm <= 0 {
				continue
			}
			if v := mi / norm; v > best {
				best = v
			}
		}
	}
	if best > 1 {
		best = 1 // guard against floating point overshoot
	}
	return best
}

// equalFreqBins assigns each value in xs to one of k equal-frequency bins
// and returns the per-point bin indices. Ties at bin boundaries go to the
// lower bin so identical values share a bin.
func equalFreqBins(xs []float64, k int) []int {
	n := len(xs)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	// Bin upper edges at the k-1 interior quantiles.
	edges := make([]float64, k-1)
	for i := 1; i < k; i++ {
		edges[i-1] = quantileSorted(sorted, float64(i)/float64(k))
	}
	bins := make([]int, n)
	for i, x := range xs {
		b := sort.SearchFloat64s(edges, x)
		// SearchFloat64s returns the first edge ≥ x; values equal to an
		// edge land below it, keeping ties together.
		if b > k-1 {
			b = k - 1
		}
		bins[i] = b
	}
	return bins
}

// mutualInformation computes I(X;Y) in nats from per-point bin labels.
func mutualInformation(xbins, ybins []int, a, b int) float64 {
	n := len(xbins)
	joint := make([]float64, a*b)
	px := make([]float64, a)
	py := make([]float64, b)
	for i := 0; i < n; i++ {
		joint[xbins[i]*b+ybins[i]]++
		px[xbins[i]]++
		py[ybins[i]]++
	}
	inv := 1 / float64(n)
	var mi float64
	for x := 0; x < a; x++ {
		for y := 0; y < b; y++ {
			j := joint[x*b+y] * inv
			if j == 0 {
				continue
			}
			mi += j * math.Log(j/(px[x]*inv*py[y]*inv))
		}
	}
	if mi < 0 {
		mi = 0 // numerical noise
	}
	return mi
}
