// Package core implements the reproduced paper's primary contribution: a
// ranking-based data-mining framework for pipe failure prediction.
//
// Instead of estimating failure probabilities, the method learns a
// real-valued scoring function H and ranks pipes by H(x). Training directly
// targets the quantity the application cares about — the bipartite ranking
// objective
//
//	AUC(H) = Σ_{z∈P, z'∈N} I(H(z) > H(z')) / (|P|·|N|)
//
// (P = failed instances, N = intact instances), which is exactly the
// empirical AUC / Wilcoxon–Mann–Whitney statistic. The package provides
// three learners for this objective:
//
//   - DirectAUC: a linear scoring function optimized by a (µ+λ) evolution
//     strategy on the (sampled) AUC itself — the paper's headline method,
//     able to optimize the non-differentiable objective directly;
//   - RankSVM: the pairwise hinge-loss convex surrogate, trained by SGD;
//   - RankBoost: bipartite RankBoost with threshold weak rankers.
//
// Scores are relative; the calibration types in this package map them to
// probabilities when a downstream cost model needs them.
package core

import (
	"context"
	"fmt"

	"repro/internal/feature"
)

// Model is the interface every failure-prediction model in the repository
// implements — the paper's learners here and the statistical baselines in
// the baseline package.
type Model interface {
	// Name returns a short stable identifier (used in result tables).
	Name() string
	// Fit trains the model on a pipe-year training set.
	Fit(train *feature.Set) error
	// Scores returns one risk score per row of the set, higher = riskier.
	// Scores are only meaningful for ranking unless the model documents
	// otherwise.
	Scores(test *feature.Set) ([]float64, error)
}

// ContextFitter is implemented by models whose training loop supports
// cooperative cancellation. FitContext behaves exactly like Fit when ctx
// is never cancelled — the cancellation checks never touch the RNG stream
// or reorder any floating-point work, so an uncancelled FitContext run is
// bit-identical to Fit. When ctx is cancelled the fit aborts promptly (at
// the next generation/round/epoch boundary), returns an error wrapping
// ctx.Err(), and leaves the model unfitted.
type ContextFitter interface {
	FitContext(ctx context.Context, train *feature.Set) error
}

// FitModel trains m under ctx: models implementing ContextFitter get the
// cancellable path; for the rest, ctx is checked once up front and the
// fit then runs to completion (every baseline fits in milliseconds, so
// boundary checks inside them buy nothing).
func FitModel(ctx context.Context, m Model, train *feature.Set) error {
	if cf, ok := m.(ContextFitter); ok {
		return cf.FitContext(ctx, train)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%s: fit cancelled: %w", m.Name(), err)
	}
	return m.Fit(train)
}

// Factory constructs a fresh, unfitted model. Registries hold factories so
// experiments can instantiate per-fold models.
type Factory func() Model

// Registry maps model names to factories in a stable order.
type Registry struct {
	names     []string
	factories map[string]Factory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]Factory)}
}

// Register adds a factory under its model's name. Registering a duplicate
// name is a programming error and panics.
func (r *Registry) Register(f Factory) {
	name := f().Name()
	if _, dup := r.factories[name]; dup {
		panic(fmt.Sprintf("core: duplicate model %q", name))
	}
	r.names = append(r.names, name)
	r.factories[name] = f
}

// Names returns the registered names in registration order.
func (r *Registry) Names() []string { return append([]string(nil), r.names...) }

// New instantiates a fresh model by name.
func (r *Registry) New(name string) (Model, error) {
	f, ok := r.factories[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown model %q (have %v)", name, r.names)
	}
	return f(), nil
}

// validateFitInputs performs the shared sanity checks of every learner.
func validateFitInputs(train *feature.Set) error {
	if train == nil || train.Len() == 0 {
		return fmt.Errorf("core: empty training set")
	}
	pos := train.Positives()
	if pos == 0 {
		return fmt.Errorf("core: training set has no positive instances")
	}
	if pos == train.Len() {
		return fmt.Errorf("core: training set has no negative instances")
	}
	return nil
}

// splitByLabel returns the row indices of positive and negative instances.
func splitByLabel(s *feature.Set) (pos, neg []int) {
	for i, v := range s.Label {
		if v {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	return pos, neg
}
