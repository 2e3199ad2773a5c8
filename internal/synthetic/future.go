package synthetic

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// Renewal describes how a replaced pipe is renewed in place: same route and
// geometry, age reset to zero, fresh frailty, and a modern material.
type Renewal struct {
	// MetallicReplacement is the material replacing CI/CICL/STEEL/DICL
	// (default DICL).
	MetallicReplacement dataset.Material
	// OtherReplacement is the material replacing AC/PVC/HDPE (default PVC).
	OtherReplacement dataset.Material
}

func (r Renewal) fillDefaults() Renewal {
	if r.MetallicReplacement == "" {
		r.MetallicReplacement = dataset.DICL
	}
	if r.OtherReplacement == "" {
		r.OtherReplacement = dataset.PVC
	}
	return r
}

// SimulateFuture plays the ground-truth hazard forward for `years` years
// past the network's observation window and returns the number of failures
// per future year. Pipes whose IDs appear in replaced are renewed at the
// start of the first future year (age reset, fresh frailty, modern
// material per the Renewal policy).
//
// This is the counterfactual engine behind the renewal-impact experiment:
// because the simulator's hazard is the ground truth, the measured
// difference between replacement policies is exact, not model-estimated.
func SimulateFuture(cfg Config, net *dataset.Columns, truth *Truth, years int,
	replaced map[string]bool, renewal Renewal, seed int64) ([]int, error) {
	if years < 1 {
		return nil, fmt.Errorf("synthetic: years %d must be >= 1", years)
	}
	if net.NumPipes() != len(truth.Frailty) {
		return nil, fmt.Errorf("synthetic: truth has %d frailties for %d pipes",
			len(truth.Frailty), net.NumPipes())
	}
	renewal = renewal.fillDefaults()
	hz := truth.CalibratedHazard
	if hz.Materials == nil {
		// Truth produced by an older path without calibration info.
		hz = cfg.Hazard
	}
	rng := stats.NewRNG(seed)
	frailtyRNG := rng.Split()
	failRNG := rng.Split()

	// Working copies of the mutable per-pipe state.
	pipes := net.Pipes()
	laid := make([]int, len(pipes))
	mat := make([]dataset.Material, len(pipes))
	frailty := make([]float64, len(pipes))
	startYear := net.ObservedTo + 1
	for i := range pipes {
		laid[i] = pipes[i].LaidYear
		mat[i] = pipes[i].Material
		frailty[i] = truth.Frailty[i]
		if replaced[pipes[i].ID] {
			laid[i] = startYear
			frailty[i] = frailtyRNG.LogNormal(0, hz.FrailtySigma)
			if isMetallic(pipes[i].Material) {
				mat[i] = renewal.MetallicReplacement
			} else {
				mat[i] = renewal.OtherReplacement
			}
		} else {
			// Burn one draw so the frailty stream stays aligned across
			// policies with different replacement sets of the same network.
			_ = frailtyRNG.Float64()
		}
	}

	out := make([]int, years)
	for h := 0; h < years; h++ {
		year := startYear + h
		for i := range pipes {
			p := pipes[i] // copy; override the renewed attributes
			p.LaidYear = laid[i]
			p.Material = mat[i]
			rate, err := hz.AnnualRate(&p, year, frailty[i])
			if err != nil {
				return nil, err
			}
			if limit := float64(p.Segments); rate > limit {
				rate = limit
			}
			out[h] += failRNG.Poisson(rate)
		}
	}
	return out, nil
}

func isMetallic(m dataset.Material) bool {
	switch m {
	case dataset.CI, dataset.CICL, dataset.DICL, dataset.STEEL:
		return true
	default:
		return false
	}
}
