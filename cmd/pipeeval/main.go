// Command pipeeval regenerates every table and figure of the reproduced
// evaluation (see DESIGN.md for the experiment index):
//
//	T1  dataset summary            F1  detection curves
//	T2  AUC by model and region    F2  AUC vs training-window length
//	T3  detection at budgets       F3  training-time scalability
//	T4  significance tests         F4  risk map (SVG)
//	T5  feature ablation
//	T6  pipe-class breakdown
//
// Usage:
//
//	pipeeval -exp all -scale 0.25 -seed 1
//	pipeeval -exp T2,T3 -scale 1 -models DirectAUC-ES,Cox,Weibull
//	pipeeval -data data/regionA,data/regionB -models RankSVM,Cox
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pipeeval: ")

	exp := flag.String("exp", "all", "comma-separated experiment IDs (T1..T6, F1..F4) or 'all'")
	seed := flag.Int64("seed", 1, "master seed")
	scale := flag.Float64("scale", 0.25, "region scale in (0,1]; 1 = full paper size")
	regions := flag.String("regions", "A,B,C", "comma-separated region presets")
	data := flag.String("data", "", "comma-separated dataset paths (CSV dirs, columnar dirs or .col files); evaluates loaded data instead of generating regions — only T2, T3 and F1 apply")
	models := flag.String("models", "", "comma-separated model subset (default: full suite)")
	esGens := flag.Int("esgens", 0, "override DirectAUC ES generations (0 = default)")
	svgOut := flag.String("riskmap", "riskmap.svg", "output path for the F4 SVG")
	metrics := flag.Bool("metrics", false, "print a JSON metrics snapshot (fit durations, ES progress, pool task counts) after the run")
	flag.Parse()
	opts := experiments.Options{
		Seed:          *seed,
		Scale:         *scale,
		Regions:       splitList(*regions),
		ESGenerations: *esGens,
	}
	if *models != "" {
		opts.Models = splitList(*models)
	}

	want := map[string]bool{}
	if *exp == "all" {
		if *data != "" {
			// Loaded datasets carry no synthetic.Config, so only the
			// observed-data experiments apply.
			for _, id := range []string{"T2", "T3", "F1"} {
				want[id] = true
			}
		} else {
			for _, id := range []string{"T0", "T1", "T2", "T3", "F1", "T4", "F2", "T5", "F3", "T6", "F4", "T7", "F5", "T8", "F6"} {
				want[id] = true
			}
		}
	} else {
		for _, id := range splitList(*exp) {
			want[strings.ToUpper(id)] = true
		}
	}
	if *data != "" {
		for id := range want {
			if id != "T2" && id != "T3" && id != "F1" {
				log.Fatalf("%s cannot run on loaded datasets (-data): it regenerates or perturbs a synthetic region; only T2, T3 and F1 apply", id)
			}
		}
	}

	// T2/T3/F1 share one expensive evaluation pass.
	var shared []experiments.RegionResult
	needShared := want["T2"] || want["T3"] || want["F1"]

	run := func(id string, fn func() error) {
		if !want[id] {
			return
		}
		fmt.Printf("== %s ==\n", id)
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		fmt.Println()
	}

	run("T0", func() error {
		tb, err := experiments.T0Cohorts(opts)
		if err != nil {
			return err
		}
		fmt.Print(tb.String())
		return nil
	})
	run("T1", func() error {
		tb, err := experiments.T1DatasetSummary(opts)
		if err != nil {
			return err
		}
		fmt.Print(tb.String())
		return nil
	})

	if needShared {
		var err error
		if *data != "" {
			var nets []*dataset.Network
			for _, path := range splitList(*data) {
				net, err := pipefail.LoadNetwork(path)
				if err != nil {
					log.Fatalf("load %s: %v", path, err)
				}
				nets = append(nets, net)
			}
			shared, err = experiments.RunNetworks(opts, nets)
		} else {
			shared, err = experiments.RunRegions(opts)
		}
		if err != nil {
			log.Fatalf("evaluation pass: %v", err)
		}
	}
	run("T2", func() error { fmt.Print(experiments.T2AUCTable(shared).String()); return nil })
	run("T3", func() error { fmt.Print(experiments.T3BudgetTable(shared).String()); return nil })
	run("F1", func() error { fmt.Print(experiments.F1DetectionSeries(shared, nil).String()); return nil })

	run("T4", func() error {
		res, err := experiments.T4Significance(opts, 0)
		if err != nil {
			return err
		}
		fmt.Print(experiments.T4Table(res).String())
		return nil
	})
	run("F2", func() error {
		tb, err := experiments.F2WindowSweep(opts, nil)
		if err != nil {
			return err
		}
		fmt.Print(tb.String())
		return nil
	})
	run("T5", func() error {
		res, err := experiments.T5Ablation(opts)
		if err != nil {
			return err
		}
		fmt.Print(experiments.T5Table(res).String())
		return nil
	})
	run("F3", func() error {
		tb, err := experiments.F3Scalability(opts, nil)
		if err != nil {
			return err
		}
		fmt.Print(tb.String())
		return nil
	})
	run("T6", func() error {
		tb, err := experiments.T6ClassBreakdown(opts)
		if err != nil {
			return err
		}
		fmt.Print(tb.String())
		return nil
	})
	run("T7", func() error {
		res, err := experiments.T7Agreement(opts, 0)
		if err != nil {
			return err
		}
		for _, r := range res {
			fmt.Print(experiments.T7Table(r).String())
		}
		return nil
	})
	run("T8", func() error {
		tb, err := experiments.T8Sensitivity(opts, opts.Regions[0], 3)
		if err != nil {
			return err
		}
		fmt.Print(tb.String())
		return nil
	})
	run("F6", func() error {
		tb, err := experiments.F6Staleness(opts, opts.Regions[0], 6)
		if err != nil {
			return err
		}
		fmt.Print(tb.String())
		return nil
	})
	run("F5", func() error {
		tb, err := experiments.F5RenewalImpact(opts, opts.Regions[0], 0.02, 5)
		if err != nil {
			return err
		}
		fmt.Print(tb.String())
		return nil
	})
	run("F4", func() error {
		rm, err := experiments.F4RiskMap(opts, opts.Regions[0])
		if err != nil {
			return err
		}
		f, err := os.Create(*svgOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rm.WriteSVG(f, 900); err != nil {
			return err
		}
		fmt.Printf("risk map for region %s (model %s) written to %s; top-decile hit %.1f%%\n",
			rm.Region, rm.Model, *svgOut, 100*rm.TopDecileHit)
		return nil
	})

	if *metrics {
		fmt.Println("== metrics ==")
		if err := obs.Default().Snapshot().WriteJSON(os.Stdout); err != nil {
			log.Fatalf("metrics: %v", err)
		}
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
