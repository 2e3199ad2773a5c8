// Command pipetrain trains a failure-prediction model on a dataset
// (written by pipegen or exported from a utility system), ranks the pipes
// for the held-out year, prints the evaluation metrics and the top of the
// inspection list, and optionally persists linear models. The -data path
// may be a CSV directory, a columnar directory, or a .col file; columnar
// data streams straight into the feature builder.
//
// Usage:
//
//	pipetrain -data data/regionA -model DirectAUC-ES -top 20 -save model.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/eval"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pipetrain: ")

	data := flag.String("data", "", "network directory (required)")
	model := flag.String("model", "DirectAUC-ES",
		"model name; one of: "+strings.Join(pipefail.Models(), ", "))
	seed := flag.Int64("seed", 1, "learner seed")
	esGens := flag.Int("esgens", 0, "override DirectAUC ES generations (0 = default)")
	top := flag.Int("top", 20, "print the top-N ranked pipes")
	save := flag.String("save", "", "persist a fitted linear model (DirectAUC-ES/RankSVM) as JSON")
	flag.Parse()

	if *data == "" {
		flag.Usage()
		os.Exit(2)
	}
	// OpenData sniffs the on-disk format; columnar datasets feed the
	// feature builder straight from their column arrays, never
	// materializing a row-oriented registry.
	d, err := pipefail.OpenData(*data)
	if err != nil {
		log.Fatal(err)
	}
	p, err := pipefail.NewPipelineData(d,
		pipefail.WithSeed(*seed), pipefail.WithESGenerations(*esGens))
	if err != nil {
		log.Fatal(err)
	}
	m, err := p.Train(*model)
	if err != nil {
		log.Fatal(err)
	}
	ranking, err := p.Rank(m)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("model %s on region %s: trained on %d-%d, evaluated on %d\n",
		*model, d.Region(), p.Split().TrainFrom, p.Split().TrainTo, p.Split().TestYear)
	fmt.Printf("AUC %s | detection @1%% %s @5%% %s @10%% %s\n",
		eval.FormatPercent(ranking.AUC()),
		eval.FormatPercent(ranking.DetectionAt(0.01)),
		eval.FormatPercent(ranking.DetectionAt(0.05)),
		eval.FormatPercent(ranking.DetectionAt(0.10)))

	tb := eval.NewTable(fmt.Sprintf("top %d pipes by predicted risk", *top),
		"rank", "pipe", "failed in test year")
	for i, id := range ranking.TopIDs(*top) {
		failed := ""
		for j, pid := range ranking.PipeIDs {
			if pid == id && ranking.Failed[j] {
				failed = "YES"
				break
			}
		}
		tb.AddRow(fmt.Sprintf("%d", i+1), id, failed)
	}
	fmt.Print(tb.String())

	if w, ok := core.LinearWeights(m); ok {
		imps, err := core.Importance(p.FeatureNames(), w)
		if err != nil {
			log.Fatal(err)
		}
		wt := eval.NewTable("top feature weights (standardized scale)", "feature", "weight")
		for i, fw := range imps {
			if i >= 10 {
				break
			}
			wt.AddRow(fw.Name, fmt.Sprintf("%+.3f", fw.Weight))
		}
		fmt.Print(wt.String())
	}

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := core.SaveLinear(f, m, p.FeatureNames()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved model to %s\n", *save)
	}
}
