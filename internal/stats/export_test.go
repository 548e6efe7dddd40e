package stats

import (
	"math"
	"sort"
)

// At returns F(x) = P(X ≤ x): the oracle the ECDF tests check Points
// against.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}
