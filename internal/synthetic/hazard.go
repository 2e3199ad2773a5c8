// Package synthetic generates metropolitan water-pipe networks and
// multi-year failure histories from a known ground-truth hazard model.
//
// The real evaluation data of the reproduced paper is a water utility's
// proprietary registry and work-order log. This package is the documented
// substitution: it produces data with the same schema, the same scale, the
// same extreme class imbalance, and the same covariate structure (material
// cohorts with distinct ageing behaviour, diameter/length exposure effects,
// spatially coherent soil factors, traffic loading), so every model in the
// repository exercises exactly the code path it would on utility data.
package synthetic

import (
	"fmt"
	"math"

	"repro/internal/dataset"
)

// MaterialHazard describes the ground-truth ageing behaviour of one
// material cohort through a Weibull-style hazard: shape > 1 means the
// cohort deteriorates with age, shape < 1 means early-life failures
// dominate (typical for PVC joints).
type MaterialHazard struct {
	// Base is the material's annual failure-rate multiplier at the
	// reference age, diameter and length.
	Base float64
	// Shape is the Weibull ageing shape parameter.
	Shape float64
	// ScaleYears is the Weibull characteristic life in years.
	ScaleYears float64
}

// HazardParams is the full ground-truth model. The annual failure intensity
// of pipe p at age t is
//
//	lambda(p, t) = GlobalRate * matBase * weibullAging(t) *
//	               (diameter/300mm)^DiameterExp * (length/100m)^LengthExp *
//	               soilCorr * soilExp * geo * map * traffic(dist) *
//	               coating * frailty(p)
//
// and the number of failures of p in a calendar year is Poisson with that
// mean (capped below 1 event/segment/year by construction at realistic
// parameter settings).
type HazardParams struct {
	// GlobalRate scales the whole intensity; the calibration target is the
	// per-pipe-year failure rate of metropolitan networks (~0.02).
	GlobalRate float64
	// Materials maps each material to its ageing behaviour.
	Materials map[dataset.Material]MaterialHazard
	// DiameterExp is the exponent on normalized diameter. Negative values
	// encode the empirical finding that small mains break more often.
	DiameterExp float64
	// LengthExp is the exponent on normalized length (1 = proportional
	// exposure, the physically expected value).
	LengthExp float64
	// SoilCorrosivity, SoilExpansivity, SoilGeology and SoilMap multiply
	// the intensity per categorical level.
	SoilCorrosivity map[string]float64
	SoilExpansivity map[string]float64
	SoilGeology     map[string]float64
	SoilMap         map[string]float64
	// Coating multiplies the intensity per coating type (sleeves protect).
	Coating map[dataset.Coating]float64
	// TrafficScaleM controls the road-pressure effect: pipes at distance d
	// from an intersection get multiplier 1 + TrafficBoost*exp(-d/TrafficScaleM).
	TrafficScaleM float64
	TrafficBoost  float64
	// FrailtySigma is the lognormal sigma of the per-pipe frailty term that
	// models unobserved heterogeneity (bedding quality, workmanship).
	FrailtySigma float64
}

// DefaultHazard returns the calibrated ground truth used by the region
// presets. The relative effects follow the water-mains deterioration
// literature: unlined cast iron worst and strongly ageing, cement lining
// helping, PVC nearly flat in age, corrosive/expansive soils and traffic
// loading each adding tens of percent.
func DefaultHazard() HazardParams {
	return HazardParams{
		GlobalRate: 0.011,
		Materials: map[dataset.Material]MaterialHazard{
			dataset.CI:    {Base: 1.9, Shape: 2.6, ScaleYears: 95},
			dataset.CICL:  {Base: 1.2, Shape: 2.2, ScaleYears: 110},
			dataset.AC:    {Base: 1.4, Shape: 2.9, ScaleYears: 80},
			dataset.DICL:  {Base: 0.7, Shape: 1.8, ScaleYears: 120},
			dataset.STEEL: {Base: 0.8, Shape: 1.6, ScaleYears: 130},
			dataset.PVC:   {Base: 0.5, Shape: 0.9, ScaleYears: 140},
			dataset.HDPE:  {Base: 0.35, Shape: 0.9, ScaleYears: 160},
		},
		DiameterExp: -1.7,
		LengthExp:   1.0,
		SoilCorrosivity: map[string]float64{
			"LOW": 0.8, "MODERATE": 1.0, "HIGH": 1.35, "SEVERE": 1.8,
		},
		SoilExpansivity: map[string]float64{
			"STABLE": 0.9, "SLIGHT": 1.0, "MODERATE": 1.2, "HIGH": 1.5,
		},
		SoilGeology: map[string]float64{
			"SANDSTONE": 0.9, "SHALE": 1.1, "CLAY": 1.3, "ALLUVIUM": 1.1, "FILL": 1.4,
		},
		SoilMap: map[string]float64{
			"FLUVIAL": 1.1, "COLLUVIAL": 1.0, "EROSIONAL": 0.95, "RESIDUAL": 0.9, "SWAMP": 1.35,
		},
		Coating: map[dataset.Coating]float64{
			dataset.CoatingNone:     1.0,
			dataset.CoatingPESleeve: 0.7,
			dataset.CoatingTar:      0.9,
		},
		TrafficScaleM: 120,
		TrafficBoost:  0.6,
		FrailtySigma:  0.45,
	}
}

// AgingFactor returns the Weibull hazard of the material at age t,
// normalized so the factor is 1 at the characteristic life's half point;
// this keeps GlobalRate interpretable across shapes.
func (h HazardParams) AgingFactor(m dataset.Material, age float64) (float64, error) {
	mh, ok := h.Materials[m]
	if !ok {
		return 0, fmt.Errorf("synthetic: no hazard parameters for material %q", m)
	}
	return mh.aging(mh.refHazard(), age), nil
}

// refHazard is the material's unnormalized hazard at half its
// characteristic life, AgingFactor's divisor.
func (mh MaterialHazard) refHazard() float64 {
	ref := mh.ScaleYears / 2
	return math.Pow(ref/mh.ScaleYears, mh.Shape-1)
}

// aging is AgingFactor given the material's refHazard.
func (mh MaterialHazard) aging(hzRef, age float64) float64 {
	if age < 0.5 {
		age = 0.5 // avoid the singularity of shape<1 hazards at zero age
	}
	return math.Pow(age/mh.ScaleYears, mh.Shape-1) / hzRef
}

// AnnualRate returns the ground-truth expected number of failures of the
// pipe in the calendar year, given its frailty multiplier.
func (h HazardParams) AnnualRate(p *dataset.Pipe, year int, frailty float64) (float64, error) {
	ph, err := h.forPipe(p)
	if err != nil {
		return 0, err
	}
	return ph.annualRate(p, year, frailty)
}

// pipeHazard holds the factors of one pipe's annual rate that do not
// depend on the year, so a loop over the pipe's years pays one math.Pow
// per year in place of three, a math.Exp and five map lookups.
type pipeHazard struct {
	mh    MaterialHazard
	hzRef float64
	// base is GlobalRate times the material base, the rate's first
	// product.
	base float64
	// factors are the diameter, length, four soil, coating and traffic
	// multipliers, in the order the rate applies them. An absent
	// coating is 1, and multiplying by 1 is exact.
	factors [8]float64
}

// forPipe computes the year-independent factors of the pipe's rate.
func (h HazardParams) forPipe(p *dataset.Pipe) (pipeHazard, error) {
	mh, ok := h.Materials[p.Material]
	if !ok {
		return pipeHazard{}, fmt.Errorf("synthetic: no hazard parameters for material %q", p.Material)
	}
	coating, ok := h.Coating[p.Coating]
	if !ok {
		coating = 1
	}
	return pipeHazard{
		mh:    mh,
		hzRef: mh.refHazard(),
		base:  h.GlobalRate * mh.Base,
		factors: [8]float64{
			math.Pow(p.DiameterMM/300, h.DiameterExp),
			math.Pow(p.LengthM/100, h.LengthExp),
			lookupOr(h.SoilCorrosivity, p.SoilCorrosivity, 1),
			lookupOr(h.SoilExpansivity, p.SoilExpansivity, 1),
			lookupOr(h.SoilGeology, p.SoilGeology, 1),
			lookupOr(h.SoilMap, p.SoilMap, 1),
			coating,
			1 + h.TrafficBoost*math.Exp(-p.DistToTrafficM/h.TrafficScaleM),
		},
	}, nil
}

// annualRate is AnnualRate for the pipe whose factors ph holds. The
// products run in the order of the hazard formula, one at a time, so
// the rate keeps its bits whether or not the factors were hoisted.
func (ph *pipeHazard) annualRate(p *dataset.Pipe, year int, frailty float64) (float64, error) {
	rate := ph.base * ph.mh.aging(ph.hzRef, p.AgeAt(year))
	for _, f := range ph.factors {
		rate *= f
	}
	rate *= frailty
	if math.IsNaN(rate) || rate < 0 {
		return 0, fmt.Errorf("synthetic: degenerate rate for pipe %q year %d", p.ID, year)
	}
	return rate, nil
}

func lookupOr(m map[string]float64, k string, def float64) float64 {
	if v, ok := m[k]; ok {
		return v
	}
	return def
}
