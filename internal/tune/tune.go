// Package tune provides model selection by stratified cross-validation on
// the training window — the standard data-mining practice for picking
// hyperparameters (regularization strengths, ensemble sizes, ES budgets)
// without touching the held-out test year.
package tune

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/feature"
)

// Candidate is one hyperparameter configuration under selection.
type Candidate struct {
	// Label identifies the configuration in reports (e.g. "lambda=1e-4").
	Label string
	// Make constructs a fresh, unfitted model with the configuration.
	Make func() core.Model
}

// Result is the cross-validated score of one candidate.
type Result struct {
	Label string
	// MeanAUC is the mean validation AUC across folds.
	MeanAUC float64
	// FoldAUCs are the per-fold validation AUCs.
	FoldAUCs []float64
}

// SelectByCV scores every candidate with k-fold stratified cross-validation
// over the training instances and returns the results sorted best-first.
// Instances are assigned to folds by row (pipe-years of the same pipe can
// land in different folds; for hyperparameter selection this optimistic
// granularity is standard and cheap). train may be dense or factored:
// each fold's training and validation rows are copied into dense sets
// once, and every candidate fits and scores that pair.
func SelectByCV(train *feature.Set, cands []Candidate, k int, seed int64) ([]Result, error) {
	if train == nil || train.Len() == 0 {
		return nil, fmt.Errorf("tune: empty training set")
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("tune: no candidates")
	}
	folds, err := eval.StratifiedKFold(train.Label, k, seed)
	if err != nil {
		return nil, fmt.Errorf("tune: %w", err)
	}

	results := make([]Result, len(cands))
	for ci, cand := range cands {
		results[ci] = Result{Label: cand.Label, FoldAUCs: make([]float64, len(folds))}
	}
	for hi := range folds {
		trIdx, err := eval.TrainIndices(folds, hi)
		if err != nil {
			return nil, fmt.Errorf("tune: %w", err)
		}
		trSet, vaSet := train.Subset(trIdx), train.Subset(folds[hi])
		for ci, cand := range cands {
			m := cand.Make()
			if err := m.Fit(trSet); err != nil {
				return nil, fmt.Errorf("tune: fit %s fold %d: %w", cand.Label, hi, err)
			}
			scores, err := m.Scores(vaSet)
			if err != nil {
				return nil, fmt.Errorf("tune: score %s fold %d: %w", cand.Label, hi, err)
			}
			results[ci].FoldAUCs[hi] = eval.AUC(scores, vaSet.Label)
		}
	}
	for ci, r := range results {
		for _, a := range r.FoldAUCs {
			results[ci].MeanAUC += a
		}
		results[ci].MeanAUC /= float64(len(folds))
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].MeanAUC > results[j].MeanAUC })
	return results, nil
}
