// Package baseline implements the statistical failure-prediction models the
// reproduced paper compares its ranking approach against: logistic
// regression, the Cox proportional-hazards model, a Weibull/NHPP time-power
// process with covariates, the classical aggregate age-rate models
// (time-exponential, time-power, time-linear), and naive heuristics.
//
// Every model satisfies core.Model so the evaluation harness treats the
// paper's method and the baselines identically.
package baseline

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/linalg"
	"repro/internal/stats"
)

// ErrNotFitted is returned when Scores is called before Fit.
var ErrNotFitted = errors.New("baseline: model not fitted")

// LogisticConfig tunes the logistic-regression baseline.
type LogisticConfig struct {
	// Ridge is the L2 penalty (default 1e-3, scaled by instance count).
	Ridge float64
	// MaxIter caps the Newton iterations (default 30).
	MaxIter int
	// Tol is the convergence threshold on the max coefficient change
	// (default 1e-8).
	Tol float64
}

func (c *LogisticConfig) fillDefaults() {
	if c.Ridge <= 0 {
		c.Ridge = 1e-3
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 30
	}
	if c.Tol <= 0 {
		c.Tol = 1e-8
	}
}

// Logistic is ridge-penalized logistic regression on pipe-year instances,
// fitted by iteratively reweighted least squares (Newton's method). It is
// the standard classification treatment of the prediction problem that the
// ranking methods are measured against.
type Logistic struct {
	cfg LogisticConfig
	// W are the coefficients; the intercept is stored separately.
	W         []float64
	Intercept float64
	fitted    bool
}

// NewLogistic returns an unfitted logistic regression.
func NewLogistic(cfg LogisticConfig) *Logistic {
	cfg.fillDefaults()
	return &Logistic{cfg: cfg}
}

// Name implements core.Model.
func (m *Logistic) Name() string { return "Logistic" }

// Fit implements core.Model.
func (m *Logistic) Fit(train *feature.Set) error {
	if train == nil || train.Len() == 0 {
		return fmt.Errorf("%s: empty training set", m.Name())
	}
	if p := train.Positives(); p == 0 || p == train.Len() {
		return fmt.Errorf("%s: training set needs both classes", m.Name())
	}
	n, d := train.Len(), train.Dim()
	// Design with intercept column appended.
	x := linalg.NewMatrix(n, d+1)
	buf := make([]float64, d)
	for i := 0; i < n; i++ {
		copy(x.Row(i), train.Row(i, buf))
		x.Set(i, d, 1)
	}
	y := make([]float64, n)
	for i, v := range train.Label {
		if v {
			y[i] = 1
		}
	}
	beta := make([]float64, d+1)
	ridge := m.cfg.Ridge * float64(n) / float64(d+1)
	mu := make([]float64, n)
	w := make([]float64, n)
	resid := make([]float64, n)
	for iter := 0; iter < m.cfg.MaxIter; iter++ {
		eta := x.MulVec(beta)
		for i := range mu {
			mu[i] = stats.Logistic(eta[i])
			w[i] = mu[i] * (1 - mu[i])
			if w[i] < 1e-10 {
				w[i] = 1e-10
			}
			resid[i] = y[i] - mu[i]
		}
		grad := x.TMulVec(resid)
		// Penalize coefficients but not the intercept.
		for j := 0; j < d; j++ {
			grad[j] -= ridge * beta[j]
		}
		hess := linalg.ATWA(x, w)
		for j := 0; j < d; j++ {
			hess.Set(j, j, hess.At(j, j)+ridge)
		}
		step, err := linalg.SolveRidge(hess, grad, 1e-10)
		if err != nil {
			return fmt.Errorf("%s: newton step: %w", m.Name(), err)
		}
		linalg.Axpy(1, step, beta)
		if linalg.NormInf(step) < m.cfg.Tol {
			break
		}
	}
	m.W = beta[:d]
	m.Intercept = beta[d]
	m.fitted = true
	return nil
}

// Scores implements core.Model; scores are predicted failure probabilities.
func (m *Logistic) Scores(test *feature.Set) ([]float64, error) {
	if !m.fitted {
		return nil, fmt.Errorf("%s: %w", m.Name(), ErrNotFitted)
	}
	if test.Dim() != len(m.W) {
		return nil, fmt.Errorf("%s: test dim %d != model dim %d", m.Name(), test.Dim(), len(m.W))
	}
	out := make([]float64, test.Len())
	buf := make([]float64, test.Dim())
	for i := range out {
		out[i] = stats.Logistic(linalg.Dot(test.Row(i, buf), m.W) + m.Intercept)
	}
	return out, nil
}

// Compile-time interface checks for every model in this package.
var (
	_ core.Model = (*Logistic)(nil)
	_ core.Model = (*Cox)(nil)
	_ core.Model = (*WeibullNHPP)(nil)
	_ core.Model = (*AgeRateModel)(nil)
	_ core.Model = (*Heuristic)(nil)
	_ core.Model = (*RandomForest)(nil)
)
