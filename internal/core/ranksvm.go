package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/feature"
	"repro/internal/linalg"
	"repro/internal/stats"
)

// RankSVMConfig tunes the pairwise hinge-loss ranker.
type RankSVMConfig struct {
	// Seed drives pair sampling.
	Seed int64
	// Epochs is the number of passes, each drawing PairsPerEpoch pairs
	// (default 30).
	Epochs int
	// PairsPerEpoch is the number of (positive, negative) pairs sampled
	// per epoch (default: 4x the positive count, at least 1000).
	PairsPerEpoch int
	// Lambda is the L2 regularization strength (default 1e-4).
	Lambda float64
	// LearningRate is the initial SGD step (default 0.1, decayed 1/sqrt(t)).
	LearningRate float64
}

func (c *RankSVMConfig) fillDefaults(numPos int) {
	if c.Epochs <= 0 {
		c.Epochs = 30
	}
	if c.PairsPerEpoch <= 0 {
		c.PairsPerEpoch = 4 * numPos
		if c.PairsPerEpoch < 1000 {
			c.PairsPerEpoch = 1000
		}
	}
	if c.Lambda <= 0 {
		c.Lambda = 1e-4
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
}

// RankSVM learns a linear scoring function by minimizing the pairwise
// hinge loss Σ max(0, 1 − w·(x⁺ − x⁻)) + λ‖w‖² over sampled
// positive/negative pairs — the convex surrogate of the AUC objective that
// the paper compares its direct optimizer against.
type RankSVM struct {
	cfg RankSVMConfig
	// W is the learned weight vector.
	W []float64
}

// NewRankSVM returns an unfitted RankSVM.
func NewRankSVM(cfg RankSVMConfig) *RankSVM {
	return &RankSVM{cfg: cfg}
}

// Name implements Model.
func (m *RankSVM) Name() string { return "RankSVM" }

// Fit implements Model.
func (m *RankSVM) Fit(train *feature.Set) error {
	return m.FitContext(context.Background(), train)
}

// FitContext implements ContextFitter: Fit with a cancellation check at
// every epoch boundary. The checks never touch the RNG, so uncancelled
// runs match Fit bit for bit.
func (m *RankSVM) FitContext(ctx context.Context, train *feature.Set) error {
	if err := validateFitInputs(train); err != nil {
		return fmt.Errorf("%s: %w", m.Name(), err)
	}
	pos, neg := splitByLabel(train)
	cfg := m.cfg
	cfg.fillDefaults(len(pos))
	rng := stats.NewRNG(cfg.Seed)

	w := make([]float64, train.Dim())
	diff := make([]float64, train.Dim())
	bufI, bufJ := make([]float64, train.Dim()), make([]float64, train.Dim())
	t := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%s: cancelled at epoch %d: %w", m.Name(), epoch, err)
		}
		for k := 0; k < cfg.PairsPerEpoch; k++ {
			t++
			xi := train.Row(pos[rng.Intn(len(pos))], bufI)
			xj := train.Row(neg[rng.Intn(len(neg))], bufJ)
			for d := range diff {
				diff[d] = xi[d] - xj[d]
			}
			lr := cfg.LearningRate / math.Sqrt(float64(t))
			// L2 shrinkage.
			linalg.Scale(1-lr*cfg.Lambda, w)
			if linalg.Dot(w, diff) < 1 {
				linalg.Axpy(lr, diff, w)
			}
		}
	}
	m.W = w
	return nil
}

// Scores implements Model.
func (m *RankSVM) Scores(test *feature.Set) ([]float64, error) {
	if m.W == nil {
		return nil, fmt.Errorf("%s: Scores before Fit", m.Name())
	}
	if test.Dim() != len(m.W) {
		return nil, fmt.Errorf("%s: test dim %d != model dim %d", m.Name(), test.Dim(), len(m.W))
	}
	return scoreAll(test, m.W), nil
}
