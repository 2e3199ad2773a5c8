package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/feature"
	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// RankNetConfig tunes the pairwise logistic ranker.
type RankNetConfig struct {
	// Seed drives pair sampling and initialization.
	Seed int64
	// Hidden is the width of the single hidden tanh layer (default 8).
	Hidden int
	// Epochs is the number of passes (default 25).
	Epochs int
	// PairsPerEpoch is the number of sampled (positive, negative) pairs
	// per epoch (default: 4x positives, at least 1000).
	PairsPerEpoch int
	// LearningRate is the SGD step (default 0.05, decayed 1/sqrt(t)).
	LearningRate float64
	// Lambda is the L2 regularization (default 1e-5).
	Lambda float64
	// Workers bounds the scoring worker pool (0 = GOMAXPROCS, 1 = serial).
	// Training is inherently sequential SGD and always runs serially;
	// scoring is a pure per-row forward pass, so results are bit-identical
	// for every worker count.
	Workers int
}

func (c *RankNetConfig) fillDefaults(numPos int) {
	if c.Hidden < 0 {
		c.Hidden = 0
	}
	if c.Hidden == 0 {
		c.Hidden = 8
	}
	if c.Epochs <= 0 {
		c.Epochs = 25
	}
	if c.PairsPerEpoch <= 0 {
		c.PairsPerEpoch = 4 * numPos
		if c.PairsPerEpoch < 1000 {
			c.PairsPerEpoch = 1000
		}
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.05
	}
	if c.Lambda <= 0 {
		c.Lambda = 1e-5
	}
}

// RankNet learns a small one-hidden-layer scoring network by minimizing
// the pairwise logistic loss log(1 + exp(−(H(x⁺) − H(x⁻)))) over sampled
// positive/negative pairs — the smooth probabilistic surrogate of the AUC
// objective, and the only nonlinear scorer among the ranking learners.
type RankNet struct {
	cfg RankNetConfig
	// w1 is hidden x dim, b1 hidden, w2 hidden (output weights).
	w1     [][]float64
	b1     []float64
	w2     []float64
	fitted bool
}

// NewRankNet returns an unfitted RankNet.
func NewRankNet(cfg RankNetConfig) *RankNet {
	return &RankNet{cfg: cfg}
}

// Name implements Model.
func (m *RankNet) Name() string { return "RankNet" }

// forward computes the score of x and returns the hidden activations
// needed for backprop. Training only; scoring uses the allocation-free
// score below.
func (m *RankNet) forward(x []float64) (score float64, hidden []float64) {
	h := len(m.w2)
	hidden = make([]float64, h)
	for k := 0; k < h; k++ {
		hidden[k] = math.Tanh(linalg.Dot(m.w1[k], x) + m.b1[k])
		score += m.w2[k] * hidden[k]
	}
	return score, hidden
}

// score is forward without materializing the hidden layer — the same
// floating-point operations in the same order, so it is bit-identical to
// forward's score, with zero allocations per row.
func (m *RankNet) score(x []float64) float64 {
	var s float64
	for k := range m.w2 {
		s += m.w2[k] * math.Tanh(linalg.Dot(m.w1[k], x)+m.b1[k])
	}
	return s
}

// Fit implements Model.
func (m *RankNet) Fit(train *feature.Set) error {
	return m.FitContext(context.Background(), train)
}

// FitContext implements ContextFitter: Fit with a cancellation check at
// every epoch boundary. The checks sit outside the pair-sampling loop and
// never touch the RNG, so uncancelled runs match Fit bit for bit; a
// cancelled fit leaves the model unfitted.
func (m *RankNet) FitContext(ctx context.Context, train *feature.Set) error {
	if err := validateFitInputs(train); err != nil {
		return fmt.Errorf("%s: %w", m.Name(), err)
	}
	pos, neg := splitByLabel(train)
	cfg := m.cfg
	cfg.fillDefaults(len(pos))
	rng := stats.NewRNG(cfg.Seed)
	dim := train.Dim()
	h := cfg.Hidden

	// Xavier-ish init.
	scale := 1 / math.Sqrt(float64(dim))
	m.w1 = make([][]float64, h)
	m.b1 = make([]float64, h)
	m.w2 = make([]float64, h)
	for k := 0; k < h; k++ {
		m.w1[k] = make([]float64, dim)
		for j := range m.w1[k] {
			m.w1[k][j] = rng.Normal(0, scale)
		}
		m.w2[k] = rng.Normal(0, 1/math.Sqrt(float64(h)))
	}

	t := 0
	bufI, bufJ := make([]float64, dim), make([]float64, dim)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			m.w1, m.b1, m.w2 = nil, nil, nil // cancelled fits stay unfitted
			return fmt.Errorf("%s: cancelled at epoch %d: %w", m.Name(), epoch, err)
		}
		for p := 0; p < cfg.PairsPerEpoch; p++ {
			t++
			xi := train.Row(pos[rng.Intn(len(pos))], bufI)
			xj := train.Row(neg[rng.Intn(len(neg))], bufJ)
			si, hi := m.forward(xi)
			sj, hj := m.forward(xj)
			// dL/d(si−sj) = −sigma(−(si−sj)).
			g := -stats.Logistic(-(si - sj))
			lr := cfg.LearningRate / math.Sqrt(float64(t))
			for k := 0; k < h; k++ {
				// Output layer.
				gw2 := g * (hi[k] - hj[k])
				// Hidden layer (tanh' = 1 − tanh²).
				gi := g * m.w2[k] * (1 - hi[k]*hi[k])
				gj := -g * m.w2[k] * (1 - hj[k]*hj[k])
				m.w2[k] -= lr * (gw2 + cfg.Lambda*m.w2[k])
				m.b1[k] -= lr * (gi + gj)
				w1k := m.w1[k]
				for d := 0; d < dim; d++ {
					w1k[d] -= lr * (gi*xi[d] + gj*xj[d] + cfg.Lambda*w1k[d])
				}
			}
		}
	}
	m.fitted = true
	return nil
}

// Scores implements Model.
func (m *RankNet) Scores(test *feature.Set) ([]float64, error) {
	if !m.fitted {
		return nil, fmt.Errorf("%s: Scores before Fit", m.Name())
	}
	if len(m.w1) > 0 && test.Dim() != len(m.w1[0]) {
		return nil, fmt.Errorf("%s: test dim %d != model dim %d", m.Name(), test.Dim(), len(m.w1[0]))
	}
	out := make([]float64, test.Len())
	parallel.New(m.cfg.Workers).Run(test.Len(), func(_, lo, hi int) {
		buf := make([]float64, test.Dim())
		for i := lo; i < hi; i++ {
			out[i] = m.score(test.Row(i, buf))
		}
	})
	return out, nil
}
