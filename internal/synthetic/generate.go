package synthetic

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// Truth carries the ground-truth quantities of a generated network, kept
// separate from the dataset so models cannot accidentally see them. Tests
// and diagnostics use it to check that learned rankings correlate with the
// true hazard.
type Truth struct {
	// Frailty is the per-pipe lognormal frailty multiplier, indexed by
	// registry row.
	Frailty []float64
	// FinalYearRate is each pipe's true expected failure count in the last
	// observed year.
	FinalYearRate []float64
	// TrueFailures is the number of failures generated before recording
	// noise dropped a subset.
	TrueFailures int
	// CalibratedHazard is the hazard actually used for sampling, i.e. the
	// configured hazard with GlobalRate rescaled by the calibration pass.
	// Counterfactual future simulation must use this, not Config.Hazard.
	CalibratedHazard HazardParams
}

// Generate builds a network plus its ground truth from the configuration.
// The same Config (including Seed) always produces identical output.
// Each pipe goes straight into the registry columns; the region is then
// validated and its failures sorted by dataset.FromRegistry.
//
// Determinism contract: each randomness consumer draws from its own split
// RNG stream (pipe attributes, frailties, failure sampling, recording
// noise), so interleaving the draws per pipe yields the exact per-stream
// sequences the original collect-then-sample implementation produced. The
// calibration pass replays the pipe and frailty streams from fresh
// identically-seeded RNGs instead of keeping pipes in memory.
func Generate(cfg Config) (*dataset.Columns, *Truth, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	rng := stats.NewRNG(cfg.Seed)
	pipeRNG := rng.Split()
	frailtyRNG := rng.Split()
	failRNG := rng.Split()
	noiseRNG := rng.Split()

	zones := newSoilZonesConfig(rng.Split(), cfg)
	sideM := math.Sqrt(cfg.AreaKM2) * 1000

	// Calibration pass: compute the expected failure count under the
	// configured hazard, then rescale so the expectation matches the
	// preset's target (if one is set).
	hz := cfg.Hazard
	if cfg.TargetFailures > 0 {
		crng := stats.NewRNG(cfg.Seed)
		cPipeRNG := crng.Split()
		cFrailtyRNG := crng.Split()
		expected := 0.0
		for i := 0; i < cfg.NumPipes; i++ {
			p := genPipe(cfg, cPipeRNG, zones, sideM, i)
			frailty := cFrailtyRNG.LogNormal(0, cfg.Hazard.FrailtySigma)
			ph, err := cfg.Hazard.forPipe(&p)
			if err != nil {
				return nil, nil, err
			}
			for year := firstActiveYear(&p, cfg); year <= cfg.ObservedTo; year++ {
				r, err := ph.annualRate(&p, year, frailty)
				if err != nil {
					return nil, nil, err
				}
				expected += r
			}
		}
		expected *= 1 - cfg.MissProb
		if expected <= 0 {
			return nil, nil, fmt.Errorf("synthetic: zero expected failures; cannot calibrate to %d", cfg.TargetFailures)
		}
		hz.GlobalRate *= float64(cfg.TargetFailures) / expected
	}

	truth := &Truth{
		Frailty:          make([]float64, cfg.NumPipes),
		FinalYearRate:    make([]float64, cfg.NumPipes),
		CalibratedHazard: hz,
	}
	// Sized up front: grown by append, the registry's columns would
	// overshoot and copy, and the region keeps these arrays.
	reg := dataset.PipeColumns{
		ID:              make([]string, 0, cfg.NumPipes),
		Class:           make([]dataset.PipeClass, 0, cfg.NumPipes),
		Material:        make([]dataset.Material, 0, cfg.NumPipes),
		Coating:         make([]dataset.Coating, 0, cfg.NumPipes),
		DiameterMM:      make([]float64, 0, cfg.NumPipes),
		LengthM:         make([]float64, 0, cfg.NumPipes),
		LaidYear:        make([]int32, 0, cfg.NumPipes),
		SoilCorrosivity: make([]string, 0, cfg.NumPipes),
		SoilExpansivity: make([]string, 0, cfg.NumPipes),
		SoilGeology:     make([]string, 0, cfg.NumPipes),
		SoilMap:         make([]string, 0, cfg.NumPipes),
		DistToTrafficM:  make([]float64, 0, cfg.NumPipes),
		X:               make([]float64, 0, cfg.NumPipes),
		Y:               make([]float64, 0, cfg.NumPipes),
		Segments:        make([]int32, 0, cfg.NumPipes),
	}
	var failures []dataset.Failure
	for i := 0; i < cfg.NumPipes; i++ {
		p := genPipe(cfg, pipeRNG, zones, sideM, i)
		frailty := frailtyRNG.LogNormal(0, cfg.Hazard.FrailtySigma)
		ph, err := hz.forPipe(&p)
		if err != nil {
			return nil, nil, err
		}
		for year := firstActiveYear(&p, cfg); year <= cfg.ObservedTo; year++ {
			rate, err := ph.annualRate(&p, year, frailty)
			if err != nil {
				return nil, nil, err
			}
			if year == cfg.ObservedTo {
				truth.FinalYearRate[i] = rate
			}
			// Cap pathological rates: no pipe plausibly averages more than
			// one event per segment per year.
			if limit := float64(p.Segments); rate > limit {
				rate = limit
			}
			n := failRNG.Poisson(rate)
			for e := 0; e < n; e++ {
				truth.TrueFailures++
				if noiseRNG.Bernoulli(cfg.MissProb) {
					continue // event happened but was never recorded
				}
				mode := dataset.ModeBreak
				if failRNG.Bernoulli(0.3) {
					mode = dataset.ModeLeak
				}
				failures = append(failures, dataset.Failure{
					PipeID:  p.ID,
					Segment: failRNG.Intn(p.Segments),
					Year:    year,
					Day:     1 + failRNG.Intn(365),
					Mode:    mode,
				})
			}
		}
		reg.Append(&p)
		truth.Frailty[i] = frailty
	}

	net, err := dataset.FromRegistry(cfg.Region, cfg.ObservedFrom, cfg.ObservedTo, reg, failures)
	if err != nil {
		return nil, nil, fmt.Errorf("synthetic: generated network invalid: %w", err)
	}
	return net, truth, nil
}

func firstActiveYear(p *dataset.Pipe, cfg Config) int {
	if p.LaidYear > cfg.ObservedFrom {
		return p.LaidYear
	}
	return cfg.ObservedFrom
}

func genPipe(cfg Config, rng *stats.RNG, zones *soilZones, sideM float64, i int) dataset.Pipe {
	var p dataset.Pipe
	if cfg.Districts > 0 {
		// Hierarchical topology: contiguous ID blocks per district, so IDs
		// stay lexicographically ordered by registry row.
		p.ID = fmt.Sprintf("%s-D%03d-%07d", cfg.Region, districtOf(i, cfg), i)
	} else {
		p.ID = fmt.Sprintf("%s-%06d", cfg.Region, i)
	}

	// Laid year: skewed toward the past for LaidSkew > 1.
	span := float64(cfg.LaidTo - cfg.LaidFrom)
	frac := math.Pow(rng.Float64(), cfg.LaidSkew)
	p.LaidYear = cfg.LaidFrom + int(frac*span+0.5)

	// Class, then diameter conditional on class.
	isCWM := rng.Bernoulli(cfg.CWMFraction)
	if isCWM {
		diams := []float64{300, 375, 450, 500, 600, 750}
		weights := []float64{0.35, 0.25, 0.18, 0.12, 0.07, 0.03}
		p.DiameterMM = diams[rng.Categorical(weights)]
	} else {
		diams := []float64{63, 100, 150, 200, 250}
		weights := []float64{0.08, 0.37, 0.30, 0.17, 0.08}
		p.DiameterMM = diams[rng.Categorical(weights)]
	}
	p.Class = dataset.ClassForDiameter(p.DiameterMM)

	// Length: lognormal; critical mains run longer.
	if isCWM {
		p.LengthM = clamp(rng.LogNormal(math.Log(320), 0.7), 30, 5000)
	} else {
		p.LengthM = clamp(rng.LogNormal(math.Log(130), 0.8), 10, 2500)
	}
	p.Segments = int(math.Ceil(p.LengthM / cfg.SegmentLengthM))
	if p.Segments < 1 {
		p.Segments = 1
	}

	// Material from the era mix of the laid year.
	era := cfg.Eras[0]
	for _, e := range cfg.Eras {
		if p.LaidYear >= e.FromYear {
			era = e
		}
	}
	ws := make([]float64, len(era.Mix))
	for j, m := range era.Mix {
		ws[j] = m.Weight
	}
	p.Material = era.Mix[rng.Categorical(ws)].Material

	p.Coating = genCoating(rng, p.Material)

	// Location and spatially coherent soil. With districts configured the
	// network is laid out as a grid of district cells (each district's
	// pipes cluster spatially, like the service areas of a national
	// utility); otherwise pipes scatter uniformly over the region.
	if cfg.Districts > 0 {
		g := districtGridSize(cfg.Districts)
		d := districtOf(i, cfg)
		cellM := sideM / float64(g)
		p.X = (float64(d%g) + rng.Float64()) * cellM
		p.Y = (float64(d/g) + rng.Float64()) * cellM
	} else {
		p.X = rng.Uniform(0, sideM)
		p.Y = rng.Uniform(0, sideM)
	}
	soil := zones.at(p.X/sideM, p.Y/sideM)
	p.SoilCorrosivity = soil.corrosivity
	p.SoilExpansivity = soil.expansivity
	p.SoilGeology = soil.geology
	p.SoilMap = soil.soilMap

	p.DistToTrafficM = rng.Exp(1 / cfg.MeanTrafficDistM)
	return p
}

// districtOf assigns pipe i to a district as a contiguous block of the
// registry (no RNG draw, so legacy draw sequences are untouched).
func districtOf(i int, cfg Config) int {
	return i * cfg.Districts / cfg.NumPipes
}

// districtGridSize returns the side of the smallest square grid holding n
// district cells.
func districtGridSize(n int) int {
	g := int(math.Ceil(math.Sqrt(float64(n))))
	if g < 1 {
		g = 1
	}
	return g
}

func genCoating(rng *stats.RNG, m dataset.Material) dataset.Coating {
	switch m {
	case dataset.CI:
		if rng.Bernoulli(0.5) {
			return dataset.CoatingTar
		}
	case dataset.CICL:
		if rng.Bernoulli(0.3) {
			return dataset.CoatingTar
		}
	case dataset.DICL:
		if rng.Bernoulli(0.5) {
			return dataset.CoatingPESleeve
		}
	case dataset.STEEL:
		if rng.Bernoulli(0.6) {
			return dataset.CoatingTar
		}
	}
	return dataset.CoatingNone
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// soilZones is a grid of per-cell soil factor draws giving spatially
// coherent categorical fields.
type soilZones struct {
	n     int
	cells []soilCell
}

type soilCell struct {
	corrosivity, expansivity, geology, soilMap string
}

// Base categorical weights of the soil factor fields.
var (
	soilCorrW = []float64{0.3, 0.4, 0.2, 0.1}
	soilExpW  = []float64{0.35, 0.3, 0.25, 0.1}
	soilGeoW  = []float64{0.35, 0.25, 0.2, 0.15, 0.05}
	soilMapW  = []float64{0.2, 0.25, 0.25, 0.25, 0.05}
)

// newSoilZonesConfig picks the flat or climate-correlated zone generator
// from the configuration. The flat path draws exactly the sequence the
// pre-climate generator did, keeping legacy presets bit-identical.
func newSoilZonesConfig(rng *stats.RNG, cfg Config) *soilZones {
	if cfg.ClimateZones > 0 {
		return newSoilZonesHier(rng, cfg.SoilZones, cfg.ClimateZones)
	}
	return newSoilZones(rng, cfg.SoilZones)
}

func newSoilZones(rng *stats.RNG, n int) *soilZones {
	z := &soilZones{n: n, cells: make([]soilCell, n*n)}
	for i := range z.cells {
		z.cells[i] = soilCell{
			corrosivity: dataset.SoilCorrosivityLevels[rng.Categorical(soilCorrW)],
			expansivity: dataset.SoilExpansivityLevels[rng.Categorical(soilExpW)],
			geology:     dataset.SoilGeologyLevels[rng.Categorical(soilGeoW)],
			soilMap:     dataset.SoilMapLevels[rng.Categorical(soilMapW)],
		}
	}
	return z
}

// newSoilZonesHier layers a coarse climate grid over the fine soil grid:
// each climate cell draws a dominant level per soil factor from the base
// weights, and the soil cells inside it draw from the base weights with the
// dominant level boosted. Soil stays locally varied but is correlated
// across whole climate zones — the nation-scale analogue of regional soil
// maps (cf. the hierarchical topology generators used for national network
// synthesis).
func newSoilZonesHier(rng *stats.RNG, n, climate int) *soilZones {
	// climateBoost concentrates a zone's soil draws on its dominant level
	// without eliminating local variation.
	const climateBoost = 4.0
	type climCell struct {
		corr, exp, geo, soilMap int
	}
	clim := make([]climCell, climate*climate)
	for i := range clim {
		clim[i] = climCell{
			corr:    rng.Categorical(soilCorrW),
			exp:     rng.Categorical(soilExpW),
			geo:     rng.Categorical(soilGeoW),
			soilMap: rng.Categorical(soilMapW),
		}
	}
	boost := func(base []float64, dominant int) []float64 {
		w := append([]float64(nil), base...)
		w[dominant] *= climateBoost
		return w
	}
	z := &soilZones{n: n, cells: make([]soilCell, n*n)}
	for i := range z.cells {
		a, b := i/n, i%n
		c := clim[(a*climate/n)*climate+(b*climate/n)]
		z.cells[i] = soilCell{
			corrosivity: dataset.SoilCorrosivityLevels[rng.Categorical(boost(soilCorrW, c.corr))],
			expansivity: dataset.SoilExpansivityLevels[rng.Categorical(boost(soilExpW, c.exp))],
			geology:     dataset.SoilGeologyLevels[rng.Categorical(boost(soilGeoW, c.geo))],
			soilMap:     dataset.SoilMapLevels[rng.Categorical(boost(soilMapW, c.soilMap))],
		}
	}
	return z
}

// at returns the cell for normalized coordinates in [0, 1].
func (z *soilZones) at(u, v float64) soilCell {
	clampIdx := func(x float64) int {
		i := int(x * float64(z.n))
		if i < 0 {
			i = 0
		}
		if i >= z.n {
			i = z.n - 1
		}
		return i
	}
	return z.cells[clampIdx(u)*z.n+clampIdx(v)]
}
