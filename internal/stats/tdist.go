package stats

import (
	"math"
	"sync"
)

// Special-function plumbing for Student-t confidence intervals, implemented
// with the classic Numerical-Recipes incomplete-beta continued fraction.

// lnGamma is math.Lgamma without the sign (arguments here are positive).
func lnGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betaIncomplete returns the regularized incomplete beta function I_x(a, b).
func betaIncomplete(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := lnGamma(a+b) - lnGamma(a) - lnGamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := 2 * m
		aa := float64(m) * (b - float64(m)) * x / ((qam + float64(m2)) * (a + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + float64(m2)) * (qap + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// TCDF returns P(T ≤ t) for a Student-t distribution with nu degrees of
// freedom.
func TCDF(t, nu float64) float64 {
	if nu <= 0 {
		return math.NaN()
	}
	if t == 0 {
		return 0.5
	}
	x := nu / (nu + t*t)
	p := 0.5 * betaIncomplete(nu/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// tqKey identifies one quantile evaluation for the memo table.
type tqKey struct{ p, nu float64 }

// tqMemo caches TQuantile results. The bisection runs 200 TCDF
// evaluations (each a continued-fraction expansion), and callers ask for
// the same handful of (confidence level, degrees-of-freedom) pairs over
// and over across regression fits, so the hit rate is effectively 100%
// after warm-up.
var tqMemo sync.Map // tqKey -> float64

// TQuantile returns the p-th quantile of a Student-t distribution with nu
// degrees of freedom (the inverse of TCDF), computed by bisection.
// Typical use: TQuantile(0.975, n-2) for a two-sided 95% interval.
// Results are memoized; the set of distinct (p, nu) pairs in any run is
// small and the table never needs eviction.
func TQuantile(p, nu float64) float64 {
	if nu <= 0 || p <= 0 || p >= 1 {
		return math.NaN()
	}
	if p == 0.5 {
		return 0
	}
	k := tqKey{p: p, nu: nu}
	if v, ok := tqMemo.Load(k); ok {
		return v.(float64)
	}
	lo, hi := -1e3, 1e3
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if TCDF(mid, nu) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	v := (lo + hi) / 2
	tqMemo.Store(k, v)
	return v
}
