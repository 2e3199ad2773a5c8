package experiments

import (
	"fmt"

	"repro/internal/eval"
)

// T7AgreementResult is one region's pairwise rank-agreement matrix.
type T7AgreementResult struct {
	Region string
	Models []string
	// Tau[i][j] is the Kendall rank correlation between the test-year
	// score vectors of Models[i] and Models[j].
	Tau [][]float64
}

// T7Agreement computes the pairwise Kendall rank correlation between the
// configured models' rankings — an extension analysis showing which model
// families produce interchangeable inspection lists and which genuinely
// disagree. Scores are subsampled to at most maxItems pipes (default 1500)
// to keep the O(n²) tau affordable.
func T7Agreement(opts Options, maxItems int) ([]T7AgreementResult, error) {
	opts = opts.withDefaults()
	if maxItems <= 0 {
		maxItems = 1500
	}
	results, err := RunRegions(opts)
	if err != nil {
		return nil, err
	}
	var out []T7AgreementResult
	for _, r := range results {
		n := len(r.Evals[0].Scores)
		stride := 1
		if n > maxItems {
			stride = (n + maxItems - 1) / maxItems
		}
		sub := func(xs []float64) []float64 {
			var s []float64
			for i := 0; i < len(xs); i += stride {
				s = append(s, xs[i])
			}
			return s
		}
		res := T7AgreementResult{Region: r.Region}
		subs := make([][]float64, len(r.Evals))
		for i, e := range r.Evals {
			res.Models = append(res.Models, e.Model)
			subs[i] = sub(e.Scores)
		}
		res.Tau = make([][]float64, len(subs))
		for i := range subs {
			res.Tau[i] = make([]float64, len(subs))
			res.Tau[i][i] = 1
			for j := 0; j < i; j++ {
				tau := eval.KendallTau(subs[i], subs[j])
				res.Tau[i][j] = tau
				res.Tau[j][i] = tau
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// T7Table renders one agreement matrix.
func T7Table(r T7AgreementResult) *eval.Table {
	header := append([]string{"model"}, r.Models...)
	tb := eval.NewTable(fmt.Sprintf("T7 (extension): Kendall tau between model rankings, region %s", r.Region), header...)
	for i, m := range r.Models {
		row := []string{m}
		for j := range r.Models {
			row = append(row, fmt.Sprintf("%.2f", r.Tau[i][j]))
		}
		tb.AddRow(row...)
	}
	return tb
}
