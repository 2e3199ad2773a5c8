package baseline

import (
	"fmt"

	"repro/internal/feature"
	"repro/internal/stats"
)

// HeuristicKind selects a naive ranking rule.
type HeuristicKind int

const (
	// ByAge ranks oldest pipes first.
	ByAge HeuristicKind = iota
	// ByLength ranks longest pipes first (pure exposure).
	ByLength
	// Random ranks uniformly at random (the floor every model must beat).
	Random
)

// String returns the heuristic's display name.
func (k HeuristicKind) String() string {
	switch k {
	case ByAge:
		return "Heuristic-Age"
	case ByLength:
		return "Heuristic-Length"
	case Random:
		return "Random"
	default:
		return fmt.Sprintf("HeuristicKind(%d)", int(k))
	}
}

// Heuristic implements the non-statistical ranking rules utilities actually
// used before data-driven prioritisation: oldest-first, longest-first, and
// a random ranking as the sanity floor.
type Heuristic struct {
	Kind HeuristicKind
	// Seed drives the Random kind.
	Seed   int64
	fitted bool
}

// NewHeuristic returns the named heuristic.
func NewHeuristic(kind HeuristicKind, seed int64) *Heuristic {
	return &Heuristic{Kind: kind, Seed: seed}
}

// Name implements core.Model.
func (m *Heuristic) Name() string { return m.Kind.String() }

// Fit implements core.Model. Heuristics have nothing to learn but still
// validate their input so misuse fails fast.
func (m *Heuristic) Fit(train *feature.Set) error {
	if train == nil || train.Len() == 0 {
		return fmt.Errorf("%s: empty training set", m.Name())
	}
	m.fitted = true
	return nil
}

// FitDataFree marks the heuristic fitted without a training set: it has
// nothing to learn, so a caller need not build one just to call Fit.
func (m *Heuristic) FitDataFree() { m.fitted = true }

// Scores implements core.Model.
func (m *Heuristic) Scores(test *feature.Set) ([]float64, error) {
	if !m.fitted {
		return nil, fmt.Errorf("%s: %w", m.Name(), ErrNotFitted)
	}
	out := make([]float64, test.Len())
	switch m.Kind {
	case ByAge:
		copy(out, test.Age)
	case ByLength:
		copy(out, test.LengthM)
	case Random:
		rng := stats.NewRNG(m.Seed)
		for i := range out {
			out[i] = rng.Float64()
		}
	default:
		return nil, fmt.Errorf("baseline: unknown heuristic kind %d", m.Kind)
	}
	return out, nil
}
