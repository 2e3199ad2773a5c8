package baseline

import (
	"fmt"
	"math"

	"repro/internal/feature"
	"repro/internal/stats"
)

// TreeConfig tunes a single CART decision tree.
type TreeConfig struct {
	// MaxDepth caps the tree depth (default 8).
	MaxDepth int
	// MinLeaf is the minimum number of instances in a leaf (default 20).
	MinLeaf int
	// FeatureSubset, when positive, examines only that many randomly
	// chosen features per split (random-forest mode); 0 examines all.
	FeatureSubset int
	// Thresholds is the number of candidate quantile cuts per feature
	// (default 24).
	Thresholds int
}

func (c *TreeConfig) fillDefaults() {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 8
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 20
	}
	if c.Thresholds <= 0 {
		c.Thresholds = 24
	}
}

// treeNode is one node of a fitted CART tree. Leaves have featureIdx == -1.
type treeNode struct {
	featureIdx  int
	threshold   float64
	left, right int // child indices into the node arena
	prob        float64
}

// cartTree is a Gini-impurity CART classification tree over a feature.Set,
// predicting the positive-class probability. It is the building block of
// the RandomForest baseline and usable standalone.
type cartTree struct {
	cfg   TreeConfig
	nodes []treeNode
}

// fitTree grows a tree on the given row subset. rng drives the feature
// subsampling; pass nil for deterministic all-features splits.
func fitTree(train *feature.Set, rows []int, cfg TreeConfig, rng *stats.RNG) *cartTree {
	cfg.fillDefaults()
	t := &cartTree{cfg: cfg}
	t.grow(train, rows, 0, rng)
	return t
}

// grow recursively builds the subtree for rows and returns its node index.
func (t *cartTree) grow(train *feature.Set, rows []int, depth int, rng *stats.RNG) int {
	idx := len(t.nodes)
	t.nodes = append(t.nodes, treeNode{featureIdx: -1, prob: posFraction(train, rows)})

	if depth >= t.cfg.MaxDepth || len(rows) < 2*t.cfg.MinLeaf {
		return idx
	}
	p := t.nodes[idx].prob
	if p == 0 || p == 1 {
		return idx
	}

	bestFeat, bestThresh, bestGain := -1, 0.0, 0.0
	parentGini := giniOf(p)

	flat, d := train.Flat()
	features := t.candidateFeatures(d, rng)
	vals := make([]float64, len(rows))
	for _, j := range features {
		for k, r := range rows {
			vals[k] = flat[r*d+j]
		}
		// vals is this node's gathered copy of feature j, refilled per
		// feature, so the cut search may sort it in place.
		cuts := stats.QuantileCuts(vals, t.cfg.Thresholds)
		for _, c := range cuts {
			var nL, nR, posL, posR float64
			for _, r := range rows {
				if flat[r*d+j] <= c {
					nL++
					if train.Label[r] {
						posL++
					}
				} else {
					nR++
					if train.Label[r] {
						posR++
					}
				}
			}
			if nL < float64(t.cfg.MinLeaf) || nR < float64(t.cfg.MinLeaf) {
				continue
			}
			n := nL + nR
			gain := parentGini - (nL/n)*giniOf(posL/nL) - (nR/n)*giniOf(posR/nR)
			if gain > bestGain {
				bestGain, bestFeat, bestThresh = gain, j, c
			}
		}
	}
	if bestFeat < 0 || bestGain < 1e-9 {
		return idx
	}

	var left, right []int
	for _, r := range rows {
		if flat[r*d+bestFeat] <= bestThresh {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	l := t.grow(train, left, depth+1, rng)
	r := t.grow(train, right, depth+1, rng)
	t.nodes[idx].featureIdx = bestFeat
	t.nodes[idx].threshold = bestThresh
	t.nodes[idx].left = l
	t.nodes[idx].right = r
	return idx
}

func (t *cartTree) candidateFeatures(dim int, rng *stats.RNG) []int {
	if t.cfg.FeatureSubset <= 0 || t.cfg.FeatureSubset >= dim || rng == nil {
		all := make([]int, dim)
		for i := range all {
			all[i] = i
		}
		return all
	}
	return rng.SampleWithoutReplacement(dim, t.cfg.FeatureSubset)
}

// predict returns the positive-class probability for one row.
func (t *cartTree) predict(x []float64) float64 {
	i := 0
	for {
		n := &t.nodes[i]
		if n.featureIdx < 0 {
			return n.prob
		}
		if x[n.featureIdx] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// depth returns the maximum depth of the fitted tree (0 = single leaf).
func (t *cartTree) depth() int {
	var walk func(i int) int
	walk = func(i int) int {
		n := &t.nodes[i]
		if n.featureIdx < 0 {
			return 0
		}
		l, r := walk(n.left), walk(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	if len(t.nodes) == 0 {
		return 0
	}
	return walk(0)
}

func posFraction(train *feature.Set, rows []int) float64 {
	if len(rows) == 0 {
		return 0
	}
	pos := 0
	for _, r := range rows {
		if train.Label[r] {
			pos++
		}
	}
	return float64(pos) / float64(len(rows))
}

func giniOf(p float64) float64 { return 2 * p * (1 - p) }

// ForestConfig tunes the RandomForest baseline.
type ForestConfig struct {
	// Seed drives bootstrap and feature subsampling.
	Seed int64
	// Trees is the ensemble size (default 60).
	Trees int
	// Tree configures the individual trees; FeatureSubset defaults to
	// ceil(sqrt(dim)) when zero.
	Tree TreeConfig
	// NegativeSubsample caps the negatives per bootstrap at this multiple
	// of the positives (default 5; class-imbalance handling).
	NegativeSubsample float64
}

func (c *ForestConfig) fillDefaults() {
	if c.Trees <= 0 {
		c.Trees = 60
	}
	if c.NegativeSubsample <= 0 {
		c.NegativeSubsample = 5
	}
}

// RandomForest is a bagged ensemble of Gini CART trees with per-split
// feature subsampling and positive-preserving bootstraps, representing the
// general-purpose classification side of the data-mining comparison. Scores
// are mean leaf probabilities across trees.
type RandomForest struct {
	cfg   ForestConfig
	trees []*cartTree
	dim   int
}

// NewRandomForest returns an unfitted forest.
func NewRandomForest(cfg ForestConfig) *RandomForest {
	cfg.fillDefaults()
	return &RandomForest{cfg: cfg}
}

// Name implements core.Model.
func (m *RandomForest) Name() string { return "RandomForest" }

// Fit implements core.Model.
func (m *RandomForest) Fit(train *feature.Set) error {
	if train == nil || train.Len() == 0 {
		return fmt.Errorf("%s: empty training set", m.Name())
	}
	pos := 0
	for _, v := range train.Label {
		if v {
			pos++
		}
	}
	if pos == 0 || pos == train.Len() {
		return fmt.Errorf("%s: training set needs both classes", m.Name())
	}
	rng := stats.NewRNG(m.cfg.Seed)

	var posRows, negRows []int
	for i, v := range train.Label {
		if v {
			posRows = append(posRows, i)
		} else {
			negRows = append(negRows, i)
		}
	}
	negPerTree := int(m.cfg.NegativeSubsample * float64(len(posRows)))
	if negPerTree > len(negRows) {
		negPerTree = len(negRows)
	}
	treeCfg := m.cfg.Tree
	treeCfg.fillDefaults()
	if treeCfg.FeatureSubset <= 0 {
		treeCfg.FeatureSubset = int(math.Ceil(math.Sqrt(float64(train.Dim()))))
	}

	m.trees = m.trees[:0]
	var negSampler stats.Sampler
	for t := 0; t < m.cfg.Trees; t++ {
		treeRNG := rng.Split()
		// Bootstrap positives (with replacement) + a fresh negative
		// subsample: keeps every tree balanced under extreme imbalance.
		rows := make([]int, 0, len(posRows)+negPerTree)
		for i := 0; i < len(posRows); i++ {
			rows = append(rows, posRows[treeRNG.Intn(len(posRows))])
		}
		for _, j := range negSampler.Sample(treeRNG, len(negRows), negPerTree) {
			rows = append(rows, negRows[j])
		}
		m.trees = append(m.trees, fitTree(train, rows, treeCfg, treeRNG))
	}
	m.dim = train.Dim()
	return nil
}

// Scores implements core.Model; scores are ensemble-mean positive-class
// probabilities (on the rebalanced bootstrap distribution — fine for
// ranking, not calibrated for absolute risk).
func (m *RandomForest) Scores(test *feature.Set) ([]float64, error) {
	if len(m.trees) == 0 {
		return nil, fmt.Errorf("%s: %w", m.Name(), ErrNotFitted)
	}
	if test.Dim() != m.dim {
		return nil, fmt.Errorf("%s: test dim %d != model dim %d", m.Name(), test.Dim(), m.dim)
	}
	out := make([]float64, test.Len())
	for i := range out {
		row, s := test.Row(i, nil), 0.0
		for _, t := range m.trees {
			s += t.predict(row)
		}
		out[i] = s / float64(len(m.trees))
	}
	return out, nil
}
