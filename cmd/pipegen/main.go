// Command pipegen generates a synthetic water-pipe network — the
// documented substitution for the proprietary utility data of the
// reproduced paper — and writes it as CSV (pipes.csv, failures.csv,
// meta.csv) or as the binary columnar format (dataset.col).
//
// Both formats are written from the one region synthetic.Generate
// builds, so the whole region is resident while it is written: about
// 440 MiB at the ~1M-pipe nation preset.
//
// Usage:
//
//	pipegen -region A -seed 42 -scale 0.25 -out data/regionA
//	pipegen -region nation -seed 1 -format col -out data/nation
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/colfmt"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/synthetic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pipegen: ")

	region := flag.String("region", "A", "region preset: A, B, C, metro or nation")
	seed := flag.Int64("seed", 1, "generator seed")
	scale := flag.Float64("scale", 1.0, "network scale in (0, 1]; 1 = full paper size")
	out := flag.String("out", "", "output directory (required)")
	format := flag.String("format", "csv", "output format: csv or col")
	flag.Parse()

	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *format != "csv" && *format != "col" {
		log.Fatalf("unknown -format %q (want csv or col)", *format)
	}

	cfg, err := synthetic.Preset(*region, *seed)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err = cfg.Scaled(*scale)
	if err != nil {
		log.Fatal(err)
	}
	net, truth, err := synthetic.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *format == "col" {
		err = os.MkdirAll(*out, 0o755)
		if err == nil {
			err = colfmt.WriteFile(filepath.Join(*out, colfmt.DatasetFile), net)
		}
	} else {
		err = dataset.SaveDir(net, *out)
	}
	if err != nil {
		log.Fatal(err)
	}

	tb := eval.NewTable(fmt.Sprintf("generated region %s (seed %d, scale %.2f) -> %s",
		*region, *seed, *scale, *out),
		"scope", "pipes", "failures", "laid", "km")
	for _, row := range net.Summarize() {
		tb.AddRow(row.Scope,
			fmt.Sprintf("%d", row.NumPipes),
			fmt.Sprintf("%d", row.NumFailures),
			fmt.Sprintf("%d-%d", row.LaidFrom, row.LaidTo),
			fmt.Sprintf("%.0f", row.TotalKM))
	}
	fmt.Print(tb.String())
	fmt.Printf("true failures before recording noise: %d\n", truth.TrueFailures)
}
