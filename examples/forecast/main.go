// Forecast: long-range renewal planning. Beyond ranking next year's
// failures, a fitted Weibull deterioration process projects each pipe's
// expected failures over a multi-year horizon — the view asset managers
// use to schedule replacements, not just inspections. This example fits
// the NHPP, forecasts five years ahead, aggregates the network-level
// failure trajectory, and lists the pipes whose five-year expected failure
// count crosses a renewal threshold.
//
//	go run ./examples/forecast
package main

import (
	"fmt"
	"log"
	"sort"

	"repro"
	"repro/internal/baseline"
	"repro/internal/dataset"
	"repro/internal/feature"
)

func main() {
	log.SetFlags(0)

	net, err := pipefail.GenerateRegion("A", 31, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	split, err := dataset.PaperSplit(net)
	if err != nil {
		log.Fatal(err)
	}
	b, err := feature.NewBuilder(net, feature.Options{})
	if err != nil {
		log.Fatal(err)
	}
	train, err := b.TrainSet(split)
	if err != nil {
		log.Fatal(err)
	}
	test, err := b.TestSet(split)
	if err != nil {
		log.Fatal(err)
	}

	m := baseline.NewWeibullNHPP(baseline.WeibullConfig{})
	if err := m.Fit(train); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted Weibull process: alpha=%.4g, shape beta=%.2f (beta>1 = ageing network)\n\n",
		m.Alpha, m.Beta)

	const horizon = 5
	fc, err := m.Forecast(test, horizon)
	if err != nil {
		log.Fatal(err)
	}

	// Network-level trajectory.
	fmt.Println("expected network failures per year:")
	for h := 0; h < horizon; h++ {
		total := 0.0
		for i := range fc {
			total += fc[i][h]
		}
		fmt.Printf("  %d: %6.1f\n", split.TestYear+h, total)
	}

	// Renewal shortlist: pipes with the largest 5-year expected counts.
	type cand struct {
		row int
		sum float64
	}
	cands := make([]cand, len(fc))
	for i := range fc {
		s := 0.0
		for _, v := range fc[i] {
			s += v
		}
		cands[i] = cand{test.PipeIdx[i], s}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].sum > cands[j].sum })
	fmt.Println("\nrenewal shortlist (largest 5-year expected failure counts):")
	var p pipefail.Pipe
	for i := 0; i < 10 && i < len(cands); i++ {
		net.PipeAt(cands[i].row, &p)
		fmt.Printf("  %2d. %s  %.2f expected failures  (%s, %d, %.0fmm, %.0fm)\n",
			i+1, p.ID, cands[i].sum, p.Material, p.LaidYear, p.DiameterMM, p.LengthM)
	}
}
