package eval

import (
	"fmt"

	"repro/internal/stats"
)

// StratifiedKFold partitions items into k folds preserving the positive
// rate per fold — essential under the extreme class imbalance of failure
// data, where plain folds can end up with zero positives.
func StratifiedKFold(labels []bool, k int, seed int64) ([][]int, error) {
	n := len(labels)
	if k < 2 {
		return nil, fmt.Errorf("eval: stratified k-fold k=%d < 2", k)
	}
	if k > n {
		return nil, fmt.Errorf("eval: stratified k-fold k=%d > n=%d", k, n)
	}
	rng := stats.NewRNG(seed)
	var pos, neg []int
	for i, v := range labels {
		if v {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	folds := make([][]int, k)
	for i, p := range pos {
		folds[i%k] = append(folds[i%k], p)
	}
	for i, p := range neg {
		folds[i%k] = append(folds[i%k], p)
	}
	return folds, nil
}

// TrainIndices returns every index not in folds[holdout] — the training
// complement of one fold.
func TrainIndices(folds [][]int, holdout int) ([]int, error) {
	if holdout < 0 || holdout >= len(folds) {
		return nil, fmt.Errorf("eval: holdout fold %d out of range [0,%d)", holdout, len(folds))
	}
	var out []int
	for i, f := range folds {
		if i == holdout {
			continue
		}
		out = append(out, f...)
	}
	return out, nil
}
