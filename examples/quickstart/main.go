// Quickstart: simulate a region, train the paper's direct-AUC ranker, and
// inspect the resulting prioritisation — the whole public API in ~50 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	log.SetFlags(0)

	// 1. Obtain a network. Region "A" is a calibrated preset of a populous
	// suburban water network; scale 0.1 keeps this example fast (~1.5k
	// pipes). Use pipefail.OpenData to read a real CSV or PCOL export instead.
	net, err := pipefail.GenerateRegion("A", 42, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("region %s: %d pipes, %d recorded failures over %d-%d\n",
		net.Region, net.NumPipes(), net.NumFailures(), net.ObservedFrom, net.ObservedTo)

	// 2. Build the pipeline. The default split follows the paper: train on
	// every observed year but the last, evaluate on the held-out year.
	p, err := pipefail.NewPipeline(net, pipefail.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}

	// 3. Train the paper's method and rank the network.
	ranking, err := p.TrainAndRank("DirectAUC-ES")
	if err != nil {
		log.Fatal(err)
	}

	// 4. Consume the ranking: evaluation metrics against the held-out year
	// and the top of the inspection list.
	fmt.Printf("test-year AUC: %.4f\n", ranking.AUC())
	fmt.Printf("failures caught inspecting top 1%%:  %.1f%%\n", 100*ranking.DetectionAt(0.01))
	fmt.Printf("failures caught inspecting top 10%%: %.1f%%\n", 100*ranking.DetectionAt(0.10))
	fmt.Println("ten highest-risk pipes:")
	for i, id := range ranking.TopIDs(10) {
		fmt.Printf("  %2d. %s\n", i+1, id)
	}
}
