// Package weighting implements the AS-weighting schemes the paper's
// introduction contrasts: researchers who lack user data traditionally
// weight every network (or every IP address, or every country) equally,
// while the APNIC dataset allows weighting by estimated users. This
// package makes the comparison quantitative: each scheme assigns a weight
// to every (country, org) pair, and Evaluate scores a scheme's weights
// against the ground-truth user distribution.
package weighting

import (
	"math"

	"repro/internal/orgs"
	"repro/internal/stats"
)

// Scheme assigns relative weights (summing to 1) to (country, org) pairs.
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// Weights returns a normalized weight per pair.
	Weights(pairs []orgs.CountryOrg) map[orgs.CountryOrg]float64
}

// Uniform weights every network equally — "treating all networks equally",
// the fallback the paper's introduction describes.
type Uniform struct{}

// Name implements Scheme.
func (Uniform) Name() string { return "uniform-per-network" }

// Weights implements Scheme.
func (Uniform) Weights(pairs []orgs.CountryOrg) map[orgs.CountryOrg]float64 {
	out := make(map[orgs.CountryOrg]float64, len(pairs))
	if len(pairs) == 0 {
		return out
	}
	w := 1 / float64(len(pairs))
	for _, p := range pairs {
		out[p] = w
	}
	return out
}

// PerCountry splits weight equally across countries, then equally across
// each country's networks.
type PerCountry struct{}

// Name implements Scheme.
func (PerCountry) Name() string { return "uniform-per-country" }

// Weights implements Scheme.
func (PerCountry) Weights(pairs []orgs.CountryOrg) map[orgs.CountryOrg]float64 {
	perCountry := map[string]int{}
	for _, p := range pairs {
		perCountry[p.Country]++
	}
	out := make(map[orgs.CountryOrg]float64, len(pairs))
	if len(perCountry) == 0 {
		return out
	}
	cw := 1 / float64(len(perCountry))
	for _, p := range pairs {
		out[p] = cw / float64(perCountry[p.Country])
	}
	return out
}

// ByMeasure weights pairs proportionally to an external measurement —
// instantiate with APNIC user estimates for the paper's recommended
// scheme, or with address-space sizes for the "per IP" tradition.
type ByMeasure struct {
	// Label names the measurement, e.g. "apnic-users".
	Label string
	// Measure maps pairs to non-negative magnitudes; missing pairs get 0.
	Measure map[orgs.CountryOrg]float64
}

// Name implements Scheme.
func (s ByMeasure) Name() string { return s.Label }

// Weights implements Scheme.
func (s ByMeasure) Weights(pairs []orgs.CountryOrg) map[orgs.CountryOrg]float64 {
	out := make(map[orgs.CountryOrg]float64, len(pairs))
	total := 0.0
	for _, p := range pairs {
		v := s.Measure[p]
		if v > 0 {
			total += v
		}
	}
	if total == 0 {
		return out
	}
	for _, p := range pairs {
		if v := s.Measure[p]; v > 0 {
			out[p] = v / total
		} else {
			out[p] = 0
		}
	}
	return out
}

// Evaluation scores a scheme's weights against the true user distribution.
type Evaluation struct {
	Scheme string
	// TotalVariation is ½ Σ |w_i − truth_i| ∈ [0, 1]; 0 = perfect.
	TotalVariation float64
	// KLDivergence is D(truth ‖ weights) in nats; +Inf when the scheme
	// assigns zero weight to a pair with real users.
	KLDivergence float64
	// TopShareError is |top-pair weight − top-pair truth|.
	TopShareError float64
}

// Evaluate compares a scheme against the true per-pair user distribution.
func Evaluate(s Scheme, truth map[orgs.CountryOrg]float64) Evaluation {
	pairs := orgs.SortedPairs(truth)

	weights := s.Weights(pairs)

	truthVec := make([]float64, len(pairs))
	for i, p := range pairs {
		truthVec[i] = truth[p]
	}
	truthVec = stats.Normalize(truthVec)

	ev := Evaluation{Scheme: s.Name()}
	var topTruth, topWeight float64
	topIdx := 0
	for i, p := range pairs {
		w := weights[p]
		ti := truthVec[i]
		ev.TotalVariation += math.Abs(w - ti)
		if ti > 0 {
			if w <= 0 {
				ev.KLDivergence = math.Inf(1)
			} else if !math.IsInf(ev.KLDivergence, 1) {
				ev.KLDivergence += ti * math.Log(ti/w)
			}
		}
		if ti > topTruth {
			topTruth = ti
			topIdx = i
		}
	}
	ev.TotalVariation /= 2
	topWeight = weights[pairs[topIdx]]
	ev.TopShareError = math.Abs(topWeight - topTruth)
	return ev
}
