package stats

import (
	"math"
	"sort"
)

// KSTwoSample returns the two-sample Kolmogorov–Smirnov statistic
// D = sup_x |F1(x) − F2(x)| between the empirical CDFs of xs and ys.
// It returns NaN if either sample is empty.
func KSTwoSample(xs, ys []float64) float64 {
	if len(xs) == 0 || len(ys) == 0 {
		return math.NaN()
	}
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)
	var d float64
	i, j := 0, 0
	na, nb := float64(len(a)), float64(len(b))
	for i < len(a) && j < len(b) {
		v := math.Min(a[i], b[j])
		for i < len(a) && a[i] <= v {
			i++
		}
		for j < len(b) && b[j] <= v {
			j++
		}
		diff := math.Abs(float64(i)/na - float64(j)/nb)
		if diff > d {
			d = diff
		}
	}
	return d
}

// MaxShareDiff returns the L∞ distance between two normalized share
// vectors: max_i |p_i − q_i|. The paper's reading of "K-S distance larger
// than 0.2" — an organization differing by at least 20% of a country's
// Internet population across consecutive days — is this statistic.
func MaxShareDiff(p, q []float64) float64 {
	if len(p) != len(q) || len(p) == 0 {
		return math.NaN()
	}
	pn := Normalize(p)
	qn := Normalize(q)
	var d float64
	for i := range pn {
		if diff := math.Abs(pn[i] - qn[i]); diff > d {
			d = diff
		}
	}
	return d
}

// AlignShares builds two index-aligned share vectors from keyed maps,
// using the union of keys in deterministic (sorted) order. Missing keys
// contribute zero — the paper maps organizations absent from one dataset
// to 0 before computing distances and correlations.
func AlignShares(p, q map[string]float64) (ps, qs []float64, keys []string) {
	seen := map[string]bool{}
	for k := range p {
		seen[k] = true
	}
	for k := range q {
		seen[k] = true
	}
	keys = make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ps = make([]float64, len(keys))
	qs = make([]float64, len(keys))
	for i, k := range keys {
		ps[i] = p[k]
		qs[i] = q[k]
	}
	return ps, qs, keys
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF over xs. The input is copied.
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// Points returns (x, F(x)) pairs at each distinct sample value, suitable
// for plotting a CDF curve like the paper's Figures 8, 10 and 12.
func (e *ECDF) Points() (xs, fs []float64) {
	n := len(e.sorted)
	for i := 0; i < n; {
		j := i
		for j+1 < n && e.sorted[j+1] == e.sorted[i] {
			j++
		}
		xs = append(xs, e.sorted[i])
		fs = append(fs, float64(j+1)/float64(n))
		i = j + 1
	}
	return xs, fs
}
