package experiments

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/feature"
)

// T1DatasetSummary reproduces the dataset-summary table: pipe and failure
// counts, laid-year ranges and the observation window per region and pipe
// class.
func T1DatasetSummary(opts Options) (*eval.Table, error) {
	opts = opts.withDefaults()
	tb := eval.NewTable(
		"T1: pipe network and failure data summary",
		"region", "scope", "pipes", "failures", "laid", "observed", "km")
	for _, name := range opts.Regions {
		net, _, err := GenerateRegion(name, opts)
		if err != nil {
			return nil, err
		}
		for _, row := range net.Summarize() {
			tb.AddRow(
				row.Region,
				row.Scope,
				fmt.Sprintf("%d", row.NumPipes),
				fmt.Sprintf("%d", row.NumFailures),
				fmt.Sprintf("%d-%d", row.LaidFrom, row.LaidTo),
				fmt.Sprintf("%d-%d", row.ObservedFrom, row.ObservedTo),
				fmt.Sprintf("%.0f", row.TotalKM),
			)
		}
	}
	return tb, nil
}

// T0Cohorts renders the exploratory cohort analysis the paper's data
// section opens with: empirical failure rates by material, age band and
// diameter band for each region.
func T0Cohorts(opts Options) (*eval.Table, error) {
	opts = opts.withDefaults()
	tb := eval.NewTable(
		"T0 (exploratory): empirical failure rates by cohort",
		"region", "cohort", "pipes", "pipe-years", "failures", "rate/pipe-yr", "rate/100km-yr")
	for _, name := range opts.Regions {
		net, _, err := GenerateRegion(name, opts)
		if err != nil {
			return nil, err
		}
		var rows []dataset.CohortRow
		rows = append(rows, net.CohortByMaterial()...)
		age, err := net.CohortByAgeBand(20)
		if err != nil {
			return nil, err
		}
		rows = append(rows, age...)
		diam, err := net.CohortByDiameterBand([]float64{100, 200, 300, 450})
		if err != nil {
			return nil, err
		}
		rows = append(rows, diam...)
		for _, r := range rows {
			tb.AddRow(name, r.Cohort,
				fmt.Sprintf("%d", r.Pipes),
				fmt.Sprintf("%.0f", r.PipeYears),
				fmt.Sprintf("%d", r.Failures),
				fmt.Sprintf("%.4f", r.RatePerPipeYear),
				fmt.Sprintf("%.2f", r.RatePer100KMYear))
		}
	}
	return tb, nil
}

// T2AUCTable renders the method-comparison AUC table (full-network AUC per
// model per region) from precomputed region results.
func T2AUCTable(results []RegionResult) *eval.Table {
	header := []string{"model"}
	for _, r := range results {
		header = append(header, "region "+r.Region)
	}
	tb := eval.NewTable("T2: AUC (100% of pipes) by model and region", header...)
	if len(results) == 0 {
		return tb
	}
	for i := range results[0].Evals {
		row := []string{results[0].Evals[i].Model}
		for _, r := range results {
			row = append(row, eval.FormatPercent(r.Evals[i].AUC))
		}
		tb.AddRow(row...)
	}
	return tb
}

// T3BudgetTable renders detection rates at the utility's inspection budgets
// (1 %, 5 %, 10 % of pipes) plus the partial AUC at 1 % in basis points.
func T3BudgetTable(results []RegionResult) *eval.Table {
	tb := eval.NewTable(
		"T3: detection at inspection budgets (per region: det@1% / det@5% / det@10% / pAUC@1%)",
		append([]string{"model"}, regionHeaders(results)...)...)
	if len(results) == 0 {
		return tb
	}
	for i := range results[0].Evals {
		row := []string{results[0].Evals[i].Model}
		for _, r := range results {
			e := r.Evals[i]
			row = append(row, fmt.Sprintf("%s / %s / %s / %s",
				eval.FormatPercent(e.Det1), eval.FormatPercent(e.Det5),
				eval.FormatPercent(e.Det10), eval.FormatBasisPoints(e.PAUC1)))
		}
		tb.AddRow(row...)
	}
	return tb
}

func regionHeaders(results []RegionResult) []string {
	out := make([]string, len(results))
	for i, r := range results {
		out[i] = "region " + r.Region
	}
	return out
}

// F1DetectionSeries renders the detection-rate-vs-inspected-percentage
// curves as a table of y values at the canonical x grid (the paper's
// figure, printed as series).
func F1DetectionSeries(results []RegionResult, xs []float64) *eval.Table {
	if len(xs) == 0 {
		xs = []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.30, 0.50, 0.75, 1.00}
	}
	header := []string{"region", "model"}
	for _, x := range xs {
		header = append(header, eval.FormatPercent(x))
	}
	tb := eval.NewTable("F1: detection rate vs percentage of pipes inspected", header...)
	for _, r := range results {
		for _, e := range r.Evals {
			row := []string{r.Region, e.Model}
			for _, x := range xs {
				row = append(row, eval.FormatPercent(eval.DetectionAt(e.Scores, e.Labels, x)))
			}
			tb.AddRow(row...)
		}
	}
	return tb
}

// T6ClassBreakdown evaluates the models separately on critical mains
// (CWM), reticulation mains (RWM) and the full network of each region —
// the per-class analysis. Only the subset of models in opts.Models runs.
func T6ClassBreakdown(opts Options) (*eval.Table, error) {
	opts = opts.withDefaults()
	reg := NewRegistry(opts.Seed, opts.ESGenerations)
	tb := eval.NewTable("T6: AUC by pipe class", "region", "scope", "model", "AUC", "det@1%")
	for _, name := range opts.Regions {
		net, _, err := GenerateRegion(name, opts)
		if err != nil {
			return nil, err
		}
		scopes := []struct {
			label string
			net   *dataset.Columns
		}{
			{"All", net},
			{"CWM", net.SubsetByClass(dataset.CriticalMain)},
			{"RWM", net.SubsetByClass(dataset.ReticulationMain)},
		}
		for _, sc := range scopes {
			if sc.net.NumPipes() == 0 {
				continue
			}
			split, err := dataset.PaperSplit(sc.net)
			if err != nil {
				return nil, err
			}
			evals, err := EvaluateSplit(sc.net, split, reg, opts.Models, feature.Groups{})
			if err != nil {
				return nil, err
			}
			for _, e := range evals {
				tb.AddRow(name, sc.label, e.Model,
					eval.FormatPercent(e.AUC), eval.FormatPercent(e.Det1))
			}
		}
	}
	return tb, nil
}
