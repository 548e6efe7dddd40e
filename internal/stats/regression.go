package stats

import "math"

// LinFit holds an ordinary-least-squares fit of y = Intercept + Slope*x.
type LinFit struct {
	Slope      float64 // β̂, the fitted slope
	Intercept  float64 // α̂, the fitted intercept
	R2         float64 // coefficient of determination of the fit
	SlopeSE    float64 // standard error of the slope
	ResidualSE float64 // residual standard error s (n-2 dof)
	N          int     // number of points
	XMean      float64 // mean of the regressor (for interval math)
	SXX        float64 // Σ(x-x̄)² (for interval math)
}

// LinearRegression fits y = a + b*x by OLS. It returns a zero-value fit
// with N set if fewer than two points (or zero x-variance) are supplied;
// callers should check Ok.
func LinearRegression(xs, ys []float64) LinFit {
	n := len(xs)
	fit := LinFit{N: n}
	if n != len(ys) || n < 2 {
		fit.R2 = math.NaN()
		return fit
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		fit.R2 = math.NaN()
		return fit
	}
	fit.Slope = sxy / sxx
	fit.Intercept = my - fit.Slope*mx
	fit.XMean = mx
	fit.SXX = sxx

	var ssRes float64
	for i := 0; i < n; i++ {
		r := ys[i] - (fit.Intercept + fit.Slope*xs[i])
		ssRes += r * r
	}
	if syy == 0 {
		fit.R2 = 1
	} else {
		fit.R2 = 1 - ssRes/syy
	}
	if n > 2 {
		fit.ResidualSE = math.Sqrt(ssRes / float64(n-2))
		fit.SlopeSE = fit.ResidualSE / math.Sqrt(sxx)
	}
	return fit
}

// Ok reports whether the fit is usable (enough points, non-degenerate x).
func (f LinFit) Ok() bool { return f.N >= 2 && f.SXX > 0 }

// Predict returns the fitted value at x.
func (f LinFit) Predict(x float64) float64 {
	return f.Intercept + f.Slope*x
}

// PredictionInterval returns the half-width of the level prediction
// interval (e.g. level = 0.95) for a new observation at x. The interval is
// ŷ(x) ± half-width. It returns NaN when fewer than three points were fit.
func (f LinFit) PredictionInterval(x, level float64) float64 {
	if f.N < 3 || f.SXX == 0 {
		return math.NaN()
	}
	t := TQuantile(0.5+level/2, float64(f.N-2))
	dx := x - f.XMean
	se := f.ResidualSE * math.Sqrt(1+1/float64(f.N)+dx*dx/f.SXX)
	return t * se
}

// R2Identity returns the coefficient of determination of the data against
// the fixed 1:1 model y = x (not a fitted line): 1 − Σ(y−x)²/Σ(y−ȳ)².
// This is Figure 2's "R² comparison of country data to 1:1 model fit"; it
// can be negative when the identity model is worse than predicting the mean.
func R2Identity(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return math.NaN()
	}
	my := Mean(ys)
	var ssRes, ssTot float64
	for i := 0; i < n; i++ {
		r := ys[i] - xs[i]
		ssRes += r * r
		d := ys[i] - my
		ssTot += d * d
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return math.Inf(-1)
	}
	return 1 - ssRes/ssTot
}

// ElasticityFit is a log-log regression log(y) = a + β log(x). The slope β
// is the elasticity coefficient of §5.1.1: the % change in y per 1% change
// in x. Points are filtered to x>0, y>0 before fitting.
type ElasticityFit struct {
	LinFit             // the fit in log10 space
	Beta       float64 // alias of Slope: the elasticity coefficient
	Used       int     // points that survived the positivity filter
	Discarded  int     // non-positive points dropped
	confidence float64
}

// Elasticity fits a log-log regression whose Above/Below bounds use the
// given confidence level (e.g. 0.95).
func Elasticity(xs, ys []float64, confidence float64) ElasticityFit {
	var lx, ly []float64
	discarded := 0
	for i := range xs {
		if i < len(ys) && xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log10(xs[i]))
			ly = append(ly, math.Log10(ys[i]))
		} else {
			discarded++
		}
	}
	fit := LinearRegression(lx, ly)
	return ElasticityFit{
		LinFit:     fit,
		Beta:       fit.Slope,
		Used:       len(lx),
		Discarded:  discarded,
		confidence: confidence,
	}
}

// Above reports whether the point (x, y) lies above the upper prediction
// bound of the fit — the paper's signal that a country's Users-to-Samples
// ratio is suspiciously high (each sample "weighs" too many users).
func (e ElasticityFit) Above(x, y float64) bool {
	if x <= 0 || y <= 0 || !e.Ok() {
		return false
	}
	lx, ly := math.Log10(x), math.Log10(y)
	hw := e.PredictionInterval(lx, e.confidence)
	if math.IsNaN(hw) {
		return false
	}
	return ly > e.Predict(lx)+hw
}

// Below reports whether the point lies below the lower prediction bound.
func (e ElasticityFit) Below(x, y float64) bool {
	if x <= 0 || y <= 0 || !e.Ok() {
		return false
	}
	lx, ly := math.Log10(x), math.Log10(y)
	hw := e.PredictionInterval(lx, e.confidence)
	if math.IsNaN(hw) {
		return false
	}
	return ly < e.Predict(lx)-hw
}

// OLS2 fits y = b0 + b1*x1 + b2*x2 by ordinary least squares (normal
// equations for two regressors). It returns ok=false for degenerate
// inputs (fewer than four points or collinear regressors).
func OLS2(x1, x2, ys []float64) (b0, b1, b2 float64, ok bool) {
	n := len(ys)
	if n < 4 || len(x1) != n || len(x2) != n {
		return 0, 0, 0, false
	}
	m1, m2, my := Mean(x1), Mean(x2), Mean(ys)
	var s11, s22, s12, s1y, s2y float64
	for i := 0; i < n; i++ {
		d1 := x1[i] - m1
		d2 := x2[i] - m2
		dy := ys[i] - my
		s11 += d1 * d1
		s22 += d2 * d2
		s12 += d1 * d2
		s1y += d1 * dy
		s2y += d2 * dy
	}
	det := s11*s22 - s12*s12
	if math.Abs(det) < 1e-12*(s11*s22+1e-300) || s11 == 0 || s22 == 0 {
		return 0, 0, 0, false
	}
	b1 = (s22*s1y - s12*s2y) / det
	b2 = (s11*s2y - s12*s1y) / det
	b0 = my - b1*m1 - b2*m2
	return b0, b1, b2, true
}
