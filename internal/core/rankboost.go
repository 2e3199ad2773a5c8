package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/feature"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// RankBoostConfig tunes the bipartite RankBoost learner.
type RankBoostConfig struct {
	// Rounds is the number of boosting rounds (default 100).
	Rounds int
	// Thresholds is the number of candidate thresholds examined per
	// feature per round (default 16 quantile cuts, at most 255; Fit
	// refuses more).
	Thresholds int
	// Workers bounds the stump-search and scoring worker pool
	// (0 = GOMAXPROCS, 1 = serial). Results are bit-identical for every
	// value: workers scan disjoint feature ranges and the cross-feature
	// argmax is reduced serially in feature order.
	Workers int
}

func (c *RankBoostConfig) fillDefaults() {
	if c.Rounds <= 0 {
		c.Rounds = 100
	}
	if c.Thresholds <= 0 {
		c.Thresholds = 16
	}
}

// stump is a threshold weak ranker: h(x) = 1 if x[featureIdx] > threshold
// (or <= when inverted), else 0.
type stump struct {
	FeatureIdx int
	Threshold  float64
	Inverted   bool
	Alpha      float64
}

func (s stump) eval(x []float64) float64 {
	above := x[s.FeatureIdx] > s.Threshold
	if above != s.Inverted {
		return 1
	}
	return 0
}

// maxCuts bounds RankBoostConfig.Thresholds: a cut index must fit the
// uint8 bins of the stump scan.
const maxCuts = math.MaxUint8

// RankBoost implements the bipartite variant of Freund et al.'s RankBoost:
// the pair distribution factorizes into per-instance potentials v⁺ and v⁻,
// so a round never enumerates pairs. Weak rankers are threshold stumps on
// single features.
//
// Each instance's value of each feature is binned once per Fit: its bin is
// the number of the feature's ascending cuts the value exceeds. A round
// then fills every cut's ratio r in one sequential pass over each
// feature's bins: O(instances × features × mean bin) additions and no
// comparisons. Each r receives the additions of a direct per-cut scan
// (every positive above the cut, then every negative above it) in the
// same order, so the stumps, and every bit of the scores, are those of
// the direct scan.
type RankBoost struct {
	cfg    RankBoostConfig
	stumps []stump
	dim    int
}

// NewRankBoost returns an unfitted RankBoost.
func NewRankBoost(cfg RankBoostConfig) *RankBoost {
	cfg.fillDefaults()
	return &RankBoost{cfg: cfg}
}

// Name implements Model.
func (m *RankBoost) Name() string { return "RankBoost" }

// Rounds returns the number of fitted weak rankers.
func (m *RankBoost) Rounds() int { return len(m.stumps) }

// Fit implements Model.
func (m *RankBoost) Fit(train *feature.Set) error {
	return m.FitContext(context.Background(), train)
}

// FitContext implements ContextFitter: Fit with a cancellation check at
// every boosting-round boundary. RankBoost draws no randomness, so the
// checks cannot perturb an uncancelled run; a cancelled fit leaves the
// model unfitted (no partial stump list).
func (m *RankBoost) FitContext(ctx context.Context, train *feature.Set) error {
	if err := validateFitInputs(train); err != nil {
		return fmt.Errorf("%s: %w", m.Name(), err)
	}
	if m.cfg.Thresholds > maxCuts {
		return fmt.Errorf("%s: Thresholds %d exceeds %d", m.Name(), m.cfg.Thresholds, maxCuts)
	}
	pos, neg := splitByLabel(train)
	dim := train.Dim()

	// Candidate thresholds per feature from quantiles of the training
	// values, computed once per Fit and cached for all rounds. The gather
	// buffer doubles as QuantileCuts' sort scratch, so the extraction
	// allocates only the cut slices themselves.
	cuts := make([][]float64, dim)
	vals := make([]float64, train.Len())
	flat, _ := train.Flat()
	for j := 0; j < dim; j++ {
		for i := range vals {
			vals[i] = flat[i*dim+j]
		}
		c := stats.QuantileCuts(vals, m.cfg.Thresholds)
		// The sort puts NaN first, so NaN cuts lead the list. No value
		// exceeds a NaN cut, so its ratio would stay 0 and never win the
		// argmax: dropping it selects the same stumps and leaves the
		// cuts ascending.
		for len(c) > 0 && math.IsNaN(c[0]) {
			c = c[1:]
		}
		cuts[j] = c
	}
	binPos := cutBins(train, pos, cuts)
	binNeg := cutBins(train, neg, cuts)

	// Potentials over positives and negatives; pair weight = vPos[i]*vNeg[j].
	vPos := make([]float64, len(pos))
	vNeg := make([]float64, len(neg))
	for i := range vPos {
		vPos[i] = 1 / float64(len(pos))
	}
	for j := range vNeg {
		vNeg[j] = 1 / float64(len(neg))
	}

	// perFeature[j] holds feature j's best stump for the current round;
	// the search fans out over disjoint feature ranges (vPos/vNeg are
	// read-only during the scan) and the winner is reduced serially in
	// feature order, so the selected stump matches a serial scan exactly.
	type featureBest struct {
		r  float64
		st stump
	}
	pool := parallel.New(m.cfg.Workers)
	perFeature := make([]featureBest, dim)
	nPos, nNeg := len(pos), len(neg)

	m.stumps = m.stumps[:0]
	for round := 0; round < m.cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			m.stumps = nil // cancelled fits stay unfitted
			return fmt.Errorf("%s: cancelled at round %d: %w", m.Name(), round, err)
		}
		// r(h) = Σ_i vPos[i] h(x_i) − Σ_j vNeg[j] h(x_j); maximize |r|.
		pool.Run(dim, func(_, lo, hi int) {
			var acc [maxCuts]float64
			for j := lo; j < hi; j++ {
				// r[c] receives +vPos[k] for each positive with bin > c,
				// in k order, then −vNeg[k] for each such negative: the
				// additions of a per-cut scan, in its order, so every
				// r[c] is bit-identical to it. Prefix sums over the bins
				// would regroup the additions and change the bits.
				r := acc[:len(cuts[j])]
				clear(r)
				for k, b := range binPos[j*nPos : (j+1)*nPos] {
					v := vPos[k]
					for c := range r[:b] {
						r[c] += v
					}
				}
				for k, b := range binNeg[j*nNeg : (j+1)*nNeg] {
					v := vNeg[k]
					for c := range r[:b] {
						r[c] -= v
					}
				}
				fb := featureBest{}
				for c, rc := range r {
					// Σ vPos = Σ vNeg after normalization, so the inverted
					// stump has ratio −r; searching |r| covers both.
					if math.Abs(rc) > math.Abs(fb.r) {
						fb.r = rc
						fb.st = stump{FeatureIdx: j, Threshold: cuts[j][c], Inverted: rc < 0}
					}
				}
				perFeature[j] = fb
			}
		})
		best, bestR := stump{}, 0.0
		for j := 0; j < dim; j++ {
			if math.Abs(perFeature[j].r) > math.Abs(bestR) {
				bestR = perFeature[j].r
				best = perFeature[j].st
			}
		}
		absR := math.Abs(bestR)
		if absR < 1e-9 || absR >= 1 {
			// No discriminative stump left (or degenerate perfect split on
			// the reweighted distribution); stop early.
			if absR >= 1 {
				best.Alpha = 4 // cap: alpha = 0.5 ln((1+r)/(1-r)) → ∞
				m.stumps = append(m.stumps, best)
			}
			break
		}
		best.Alpha = 0.5 * math.Log((1+absR)/(1-absR))
		m.stumps = append(m.stumps, best)

		// Update potentials: vPos *= exp(−α h(x)), vNeg *= exp(+α h(x)).
		for k, i := range pos {
			vPos[k] *= math.Exp(-best.Alpha * best.eval(train.Row(i, nil)))
		}
		for k, i := range neg {
			vNeg[k] *= math.Exp(best.Alpha * best.eval(train.Row(i, nil)))
		}
		normalize(vPos)
		normalize(vNeg)
	}
	if len(m.stumps) == 0 {
		return fmt.Errorf("%s: no discriminative weak ranker found", m.Name())
	}
	m.dim = dim
	return nil
}

// cutBins returns, column-major per feature, each listed row's bin: the
// number of the feature's ascending cuts its value exceeds, so that
// x > cuts[j][c] holds exactly when c < bin. NaN exceeds no cut and gets
// bin 0, as NaN > c is false.
func cutBins(train *feature.Set, rows []int, cuts [][]float64) []uint8 {
	n := len(rows)
	bins := make([]uint8, len(cuts)*n)
	for k, i := range rows {
		row := train.Row(i, nil)
		for j, cj := range cuts {
			b := 0
			for b < len(cj) && row[j] > cj[b] {
				b++
			}
			bins[j*n+k] = uint8(b)
		}
	}
	return bins
}

// Scores implements Model.
func (m *RankBoost) Scores(test *feature.Set) ([]float64, error) {
	if len(m.stumps) == 0 {
		return nil, fmt.Errorf("%s: Scores before Fit", m.Name())
	}
	if test.Dim() != m.dim {
		return nil, fmt.Errorf("%s: test dim %d != model dim %d", m.Name(), test.Dim(), m.dim)
	}
	out := make([]float64, test.Len())
	parallel.New(m.cfg.Workers).Run(test.Len(), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			x, s := test.Row(i, nil), 0.0
			for _, st := range m.stumps {
				s += st.Alpha * st.eval(x)
			}
			out[i] = s
		}
	})
	return out, nil
}

func normalize(v []float64) {
	s := 0.0
	for _, x := range v {
		s += x
	}
	if s <= 0 {
		return
	}
	for i := range v {
		v[i] /= s
	}
}
