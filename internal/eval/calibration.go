package eval

import "fmt"

// Brier returns the Brier score (mean squared error of predicted
// probabilities against binary outcomes); lower is better. It panics on
// length mismatch and returns 0 for empty input.
func Brier(probs []float64, labels []bool) float64 {
	if len(probs) != len(labels) {
		panic(fmt.Sprintf("eval: Brier length mismatch %d vs %d", len(probs), len(labels)))
	}
	if len(probs) == 0 {
		return 0
	}
	s := 0.0
	for i, p := range probs {
		y := 0.0
		if labels[i] {
			y = 1
		}
		d := p - y
		s += d * d
	}
	return s / float64(len(probs))
}

// KendallTau returns the Kendall rank correlation (tau-a) between two score
// vectors over the same items, computed in O(n²) — fine for the model-
// agreement analysis over thousands of pipes, not millions. It returns 0
// for mismatched or sub-2-element input.
func KendallTau(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 0
	}
	var concordant, discordant float64
	for i := 0; i < len(a); i++ {
		for j := i + 1; j < len(a); j++ {
			da := a[i] - a[j]
			db := b[i] - b[j]
			s := da * db
			switch {
			case s > 0:
				concordant++
			case s < 0:
				discordant++
			}
		}
	}
	n := float64(len(a))
	pairs := n * (n - 1) / 2
	return (concordant - discordant) / pairs
}
