package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestLinearRegressionExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9} // y = 1 + 2x
	fit := LinearRegression(xs, ys)
	approx(t, fit.Slope, 2, 1e-12, "slope")
	approx(t, fit.Intercept, 1, 1e-12, "intercept")
	approx(t, fit.R2, 1, 1e-12, "R2")
	approx(t, fit.ResidualSE, 0, 1e-9, "residual SE")
	if !fit.Ok() {
		t.Fatal("fit should be Ok")
	}
}

func TestLinearRegressionKnown(t *testing.T) {
	// Hand-computed: x=[1..5], y=[2,1,4,3,7] → slope=12/10=1.2,
	// intercept=3.4−3.6=−0.2, SSres=6.8, SStot=21.2 → R²=0.67925,
	// s=√(6.8/3)=1.5055 → SE(slope)=s/√10=0.47610.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 1, 4, 3, 7}
	fit := LinearRegression(xs, ys)
	approx(t, fit.Slope, 1.2, 1e-9, "slope")
	approx(t, fit.Intercept, -0.2, 1e-9, "intercept")
	approx(t, fit.R2, 0.67925, 1e-4, "R2")
	approx(t, fit.SlopeSE, 0.47610, 1e-4, "slope SE")
}

func TestLinearRegressionDegenerate(t *testing.T) {
	fit := LinearRegression([]float64{2, 2, 2}, []float64{1, 2, 3})
	if fit.Ok() {
		t.Fatal("fit with zero x variance should not be Ok")
	}
	fit = LinearRegression([]float64{1}, []float64{2})
	if fit.Ok() {
		t.Fatal("single-point fit should not be Ok")
	}
}

func TestPredictionIntervalWidens(t *testing.T) {
	s := rng.New(5)
	xs := make([]float64, 50)
	ys := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 2*xs[i] + s.Norm(0, 1)
	}
	fit := LinearRegression(xs, ys)
	atCenter := fit.PredictionInterval(fit.XMean, 0.95)
	atEdge := fit.PredictionInterval(fit.XMean+100, 0.95)
	if !(atEdge > atCenter) {
		t.Fatalf("prediction interval should widen away from x̄: center=%v edge=%v", atCenter, atEdge)
	}
	if atCenter <= 0 {
		t.Fatalf("interval half-width must be positive, got %v", atCenter)
	}
}

func TestPredictionIntervalCoverage(t *testing.T) {
	// ~95% of new points drawn from the true model must fall inside the
	// 95% prediction band.
	s := rng.New(7)
	n := 200
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = s.Range(0, 10)
		ys[i] = 3 + 0.5*xs[i] + s.Norm(0, 2)
	}
	fit := LinearRegression(xs, ys)
	inside := 0
	trials := 2000
	for i := 0; i < trials; i++ {
		x := s.Range(0, 10)
		y := 3 + 0.5*x + s.Norm(0, 2)
		hw := fit.PredictionInterval(x, 0.95)
		if math.Abs(y-fit.Predict(x)) <= hw {
			inside++
		}
	}
	cov := float64(inside) / float64(trials)
	if cov < 0.92 || cov > 0.98 {
		t.Fatalf("95%% prediction interval coverage = %v", cov)
	}
}

func TestR2Identity(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	approx(t, R2Identity(xs, xs), 1, 1e-12, "identity on itself")

	// Slight noise: still high.
	ys := []float64{1.1, 1.9, 3.05, 4.0}
	if v := R2Identity(xs, ys); v < 0.9 {
		t.Fatalf("near-identity R2 = %v, want > 0.9", v)
	}

	// Anti-correlated data: the 1:1 model is worse than the mean → negative.
	anti := []float64{4, 3, 2, 1}
	if v := R2Identity(xs, anti); v >= 0 {
		t.Fatalf("anti-correlated identity R2 = %v, want negative", v)
	}
}

func TestElasticityRecoversExponent(t *testing.T) {
	// y = 3 * x^0.9 with mild noise: β̂ must be ≈ 0.9 — the shape of the
	// paper's Figure 6 fit.
	s := rng.New(11)
	n := 150
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = math.Pow(10, s.Range(2, 8))
		ys[i] = 3 * math.Pow(xs[i], 0.9) * s.LogNormal(0, 0.1)
	}
	fit := Elasticity(xs, ys, 0.95)
	approx(t, fit.Beta, 0.9, 0.03, "elasticity beta")
	if fit.Used != n || fit.Discarded != 0 {
		t.Fatalf("used=%d discarded=%d", fit.Used, fit.Discarded)
	}
}

func TestElasticityFiltersNonPositive(t *testing.T) {
	fit := Elasticity([]float64{10, 0, -5, 100}, []float64{20, 5, 5, 200}, 0.95)
	if fit.Used != 2 || fit.Discarded != 2 {
		t.Fatalf("used=%d discarded=%d, want 2/2", fit.Used, fit.Discarded)
	}
}

func TestElasticityOutlierDetection(t *testing.T) {
	s := rng.New(13)
	n := 120
	xs := make([]float64, 0, n+1)
	ys := make([]float64, 0, n+1)
	for i := 0; i < n; i++ {
		x := math.Pow(10, s.Range(3, 7))
		xs = append(xs, x)
		ys = append(ys, 2*math.Pow(x, 1.0)*s.LogNormal(0, 0.05))
	}
	fit := Elasticity(xs, ys, 0.95)
	// A country whose samples "weigh" 100× the norm sits far above the band.
	if !fit.Above(1e4, 2*1e4*100) {
		t.Fatal("gross over-weighting not flagged Above")
	}
	if fit.Above(1e4, 2*1e4) {
		t.Fatal("on-trend point wrongly flagged Above")
	}
	if !fit.Below(1e4, 2*1e4/100) {
		t.Fatal("gross under-weighting not flagged Below")
	}
}

func TestTQuantile(t *testing.T) {
	// Known values: t_{0.975, 10} = 2.2281, t_{0.975, 30} = 2.0423,
	// t_{0.95, 5} = 2.0150; large nu approaches the normal 1.95996.
	approx(t, TQuantile(0.975, 10), 2.2281, 1e-3, "t(0.975,10)")
	approx(t, TQuantile(0.975, 30), 2.0423, 1e-3, "t(0.975,30)")
	approx(t, TQuantile(0.95, 5), 2.0150, 1e-3, "t(0.95,5)")
	approx(t, TQuantile(0.975, 1e6), 1.95996, 1e-3, "t→normal")
	approx(t, TQuantile(0.5, 7), 0, 1e-9, "median of t is 0")
}

func TestTCDFSymmetry(t *testing.T) {
	for _, nu := range []float64{1, 5, 30} {
		for _, x := range []float64{0.5, 1, 2.5} {
			lo := TCDF(-x, nu)
			hi := TCDF(x, nu)
			approx(t, lo+hi, 1, 1e-9, "t CDF symmetry")
		}
	}
}

// Property: TCDF and TQuantile are inverse functions.
func TestQuickTQuantileRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		p := s.Range(0.02, 0.98)
		nu := s.Range(2, 100)
		q := TQuantile(p, nu)
		return math.Abs(TCDF(q, nu)-p) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: regression residuals are orthogonal to the regressor
// (the defining normal equation of OLS).
func TestQuickOLSNormalEquations(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		n := 5 + s.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = s.Norm(0, 3)
			ys[i] = s.Norm(0, 3)
		}
		fit := LinearRegression(xs, ys)
		if !fit.Ok() {
			return true
		}
		var sumR, sumRX float64
		for i := range xs {
			r := ys[i] - fit.Predict(xs[i])
			sumR += r
			sumRX += r * xs[i]
		}
		scale := float64(n)
		return math.Abs(sumR)/scale < 1e-8 && math.Abs(sumRX)/scale < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOLS2Exact(t *testing.T) {
	// y = 2 + 3*x1 - 1.5*x2 exactly.
	s := rng.New(21)
	var x1, x2, ys []float64
	for i := 0; i < 50; i++ {
		a := s.Norm(0, 2)
		b := s.Norm(0, 2)
		x1 = append(x1, a)
		x2 = append(x2, b)
		ys = append(ys, 2+3*a-1.5*b)
	}
	b0, b1, b2, ok := OLS2(x1, x2, ys)
	if !ok {
		t.Fatal("fit failed")
	}
	approx(t, b0, 2, 1e-9, "b0")
	approx(t, b1, 3, 1e-9, "b1")
	approx(t, b2, -1.5, 1e-9, "b2")
}

func TestOLS2Degenerate(t *testing.T) {
	// Collinear regressors must fail cleanly.
	x1 := []float64{1, 2, 3, 4, 5}
	x2 := []float64{2, 4, 6, 8, 10} // 2*x1
	ys := []float64{1, 2, 3, 4, 5}
	if _, _, _, ok := OLS2(x1, x2, ys); ok {
		t.Fatal("collinear fit should fail")
	}
	if _, _, _, ok := OLS2(x1[:2], x2[:2], ys[:2]); ok {
		t.Fatal("tiny fit should fail")
	}
	if _, _, _, ok := OLS2(x1, x2[:3], ys); ok {
		t.Fatal("mismatched lengths should fail")
	}
}

// Property: OLS2 residuals are orthogonal to both regressors.
func TestQuickOLS2NormalEquations(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		n := 10 + s.Intn(40)
		var x1, x2, ys []float64
		for i := 0; i < n; i++ {
			x1 = append(x1, s.Norm(0, 2))
			x2 = append(x2, s.Norm(0, 2))
			ys = append(ys, s.Norm(0, 2))
		}
		b0, b1, b2, ok := OLS2(x1, x2, ys)
		if !ok {
			return true
		}
		var r1, r2 float64
		for i := 0; i < n; i++ {
			r := ys[i] - (b0 + b1*x1[i] + b2*x2[i])
			r1 += r * x1[i]
			r2 += r * x2[i]
		}
		return math.Abs(r1)/float64(n) < 1e-7 && math.Abs(r2)/float64(n) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
