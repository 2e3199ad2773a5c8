package baseline

import (
	"fmt"
	"math"

	"repro/internal/feature"
	"repro/internal/linalg"
)

// WeibullConfig tunes the Weibull/NHPP baseline.
type WeibullConfig struct {
	// Iterations is the number of gradient-ascent steps (default 400).
	Iterations int
	// LearningRate is the initial step size (default 0.05, decayed).
	LearningRate float64
	// Ridge penalizes the covariate coefficients (default 1e-3).
	Ridge float64
}

func (c *WeibullConfig) fillDefaults() {
	if c.Iterations <= 0 {
		c.Iterations = 400
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.05
	}
	if c.Ridge <= 0 {
		c.Ridge = 1e-3
	}
}

// WeibullNHPP models pipe failures as a non-homogeneous Poisson process
// with Weibull (time-power) intensity modulated multiplicatively by
// covariates:
//
//	λ(t, x) = α·β·t^(β−1) · exp(θᵀx)
//
// The expected failure count of a pipe aged a over the next year is
// m = α((a+1)^β − a^β)·exp(θᵀx); the model is fitted by maximizing the
// Poisson likelihood of the pipe-year counts by projected gradient ascent
// on (log α, log β, θ). β > 1 corresponds to deteriorating pipes.
type WeibullNHPP struct {
	cfg WeibullConfig
	// Alpha and Beta are the Weibull process parameters.
	Alpha, Beta float64
	// Theta are the covariate coefficients.
	Theta  []float64
	fitted bool
}

// NewWeibullNHPP returns an unfitted model.
func NewWeibullNHPP(cfg WeibullConfig) *WeibullNHPP {
	cfg.fillDefaults()
	return &WeibullNHPP{cfg: cfg}
}

// Name implements core.Model.
func (m *WeibullNHPP) Name() string { return "Weibull" }

// ageBasis returns g(a) = (a+1)^β − a^β and its derivative with respect
// to β.
func ageBasis(a, beta float64) (g, dgdb float64) {
	ap := a + 1
	pa := 0.0
	la := 0.0
	if a > 0 {
		pa = math.Pow(a, beta)
		la = math.Log(a)
	}
	pap := math.Pow(ap, beta)
	lap := math.Log(ap)
	g = pap - pa
	dgdb = pap*lap - pa*la
	return g, dgdb
}

// Fit implements core.Model.
func (m *WeibullNHPP) Fit(train *feature.Set) error {
	if train == nil || train.Len() == 0 {
		return fmt.Errorf("%s: empty training set", m.Name())
	}
	if train.Positives() == 0 {
		return fmt.Errorf("%s: no failures in training window", m.Name())
	}
	n, d := train.Len(), train.Dim()
	logAlpha := math.Log(float64(train.Positives()) / float64(n))
	logBeta := math.Log(1.5)
	theta := make([]float64, d)

	y := make([]float64, n)
	for i, v := range train.Label {
		if v {
			y[i] = 1
		}
	}

	// Ages repeat across pipe-years (they are whole years by
	// construction), so each iteration evaluates the age basis once per
	// distinct age and looks it up per instance. ageBasis is pure, so the
	// lookup returns the bits a per-instance call would.
	ages, ageIdx := distinctAges(train.Age)
	basis := make([][2]float64, len(ages))

	gTheta := make([]float64, d)
	for iter := 0; iter < m.cfg.Iterations; iter++ {
		alpha := math.Exp(logAlpha)
		beta := math.Exp(logBeta)
		var gA, gB float64
		for j := range gTheta {
			gTheta[j] = 0
		}
		for u, a := range ages {
			basis[u][0], basis[u][1] = ageBasis(a, beta)
		}
		for i := 0; i < n; i++ {
			x := train.Row(i, nil)
			eta := linalg.Dot(theta, x)
			if eta > 30 {
				eta = 30
			}
			g, dgdb := basis[ageIdx[i]][0], basis[ageIdx[i]][1]
			mu := alpha * g * math.Exp(eta)
			if mu > 50 {
				mu = 50 // guard against transient blow-ups early in the ascent
			}
			r := y[i] - mu
			gA += r
			if g > 0 {
				gB += r * (dgdb / g) * beta
			}
			linalg.Axpy(r, x, gTheta)
		}
		for j := range gTheta {
			gTheta[j] -= m.cfg.Ridge * float64(n) * theta[j]
		}
		lr := m.cfg.LearningRate / (1 + 0.02*float64(iter)) / float64(n)
		logAlpha += lr * gA * 4 // the scalar params get a larger relative step
		logBeta += lr * gB * 4
		linalg.Axpy(lr, gTheta, theta)
		// Keep beta in a sane range.
		if logBeta > math.Log(6) {
			logBeta = math.Log(6)
		}
		if logBeta < math.Log(0.2) {
			logBeta = math.Log(0.2)
		}
	}
	m.Alpha = math.Exp(logAlpha)
	m.Beta = math.Exp(logBeta)
	m.Theta = theta
	m.fitted = true
	return nil
}

// distinctAges returns the distinct values of age in first-seen order and
// each instance's index into them. Values are keyed by their bits, so any
// float works: −0 and +0 stay apart, and so do NaNs with distinct
// payloads.
func distinctAges(age []float64) (vals []float64, idx []int32) {
	seen := make(map[uint64]int32)
	idx = make([]int32, len(age))
	for i, a := range age {
		u, ok := seen[math.Float64bits(a)]
		if !ok {
			u = int32(len(vals))
			seen[math.Float64bits(a)] = u
			vals = append(vals, a)
		}
		idx[i] = u
	}
	return vals, idx
}

// Forecast projects each test pipe's expected failure count over the next
// horizon years: element [i][h] is the expected count of pipe i in year
// h+1 from its test age. This is the long-range renewal-planning view a
// fitted deterioration process enables beyond single-year ranking.
func (m *WeibullNHPP) Forecast(test *feature.Set, horizon int) ([][]float64, error) {
	if !m.fitted {
		return nil, fmt.Errorf("%s: %w", m.Name(), ErrNotFitted)
	}
	if horizon < 1 {
		return nil, fmt.Errorf("%s: horizon %d must be >= 1", m.Name(), horizon)
	}
	if test.Dim() != len(m.Theta) {
		return nil, fmt.Errorf("%s: test dim %d != model dim %d", m.Name(), test.Dim(), len(m.Theta))
	}
	out := make([][]float64, test.Len())
	for i := range out {
		eta := linalg.Dot(m.Theta, test.Row(i, nil))
		if eta > 30 {
			eta = 30
		}
		mult := m.Alpha * math.Exp(eta)
		out[i] = make([]float64, horizon)
		for h := 0; h < horizon; h++ {
			g, _ := ageBasis(test.Age[i]+float64(h), m.Beta)
			out[i][h] = mult * g
		}
	}
	return out, nil
}

// Scores implements core.Model; scores are expected next-year failure
// counts m(a, x).
func (m *WeibullNHPP) Scores(test *feature.Set) ([]float64, error) {
	if !m.fitted {
		return nil, fmt.Errorf("%s: %w", m.Name(), ErrNotFitted)
	}
	if test.Dim() != len(m.Theta) {
		return nil, fmt.Errorf("%s: test dim %d != model dim %d", m.Name(), test.Dim(), len(m.Theta))
	}
	out := make([]float64, test.Len())
	for i := range out {
		eta := linalg.Dot(m.Theta, test.Row(i, nil))
		if eta > 30 {
			eta = 30
		}
		g, _ := ageBasis(test.Age[i], m.Beta)
		out[i] = m.Alpha * g * math.Exp(eta)
	}
	return out, nil
}
