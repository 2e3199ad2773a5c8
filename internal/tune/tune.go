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
// granularity is standard and cheap).
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

	results := make([]Result, 0, len(cands))
	for _, cand := range cands {
		r := Result{Label: cand.Label}
		for hi := range folds {
			trIdx, err := eval.TrainIndices(folds, hi)
			if err != nil {
				return nil, fmt.Errorf("tune: %w", err)
			}
			trSet := subset(train, trIdx)
			vaSet := subset(train, folds[hi])
			m := cand.Make()
			if err := m.Fit(trSet); err != nil {
				return nil, fmt.Errorf("tune: fit %s fold %d: %w", cand.Label, hi, err)
			}
			scores, err := m.Scores(vaSet)
			if err != nil {
				return nil, fmt.Errorf("tune: score %s fold %d: %w", cand.Label, hi, err)
			}
			r.FoldAUCs = append(r.FoldAUCs, eval.AUC(scores, vaSet.Label))
		}
		sum := 0.0
		for _, a := range r.FoldAUCs {
			sum += a
		}
		r.MeanAUC = sum / float64(len(r.FoldAUCs))
		results = append(results, r)
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].MeanAUC > results[j].MeanAUC })
	return results, nil
}

// subset builds a row-subset view of a feature set (copies the index
// slices, shares the row vectors).
func subset(s *feature.Set, rows []int) *feature.Set {
	out := &feature.Set{Names: s.Names}
	for _, i := range rows {
		out.X = append(out.X, s.X[i])
		out.Label = append(out.Label, s.Label[i])
		out.Age = append(out.Age, s.Age[i])
		out.LengthM = append(out.LengthM, s.LengthM[i])
		out.PipeIdx = append(out.PipeIdx, s.PipeIdx[i])
		out.Year = append(out.Year, s.Year[i])
	}
	return out
}
