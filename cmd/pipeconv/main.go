// Command pipeconv converts a dataset between the CSV directory layout
// (pipes.csv, failures.csv, meta.csv) and the binary columnar PCOL format
// (dataset.col). The direction is inferred from the input: a columnar
// input converts to a CSV directory, a CSV directory converts to a
// columnar file. Both directions validate the data on load, and the two
// representations produce bit-identical feature matrices downstream.
//
// Usage:
//
//	pipeconv -in data/regionA -out data/regionA-col        # CSV -> columnar
//	pipeconv -in data/regionA-col -out data/regionA-csv    # columnar -> CSV
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/colfmt"
	"repro/internal/dataset"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pipeconv: ")

	in := flag.String("in", "", "input dataset: CSV directory, columnar directory, or .col file (required)")
	out := flag.String("out", "", "output path: .col file or directory (required)")
	flag.Parse()
	if *in == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}

	start := time.Now()
	d, columnar, err := colfmt.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	loadElapsed := time.Since(start)

	var outFiles []string
	var target string
	format := "csv"
	convStart := time.Now()
	if columnar {
		// Columnar in -> CSV directory out.
		format = "columnar"
		if err := dataset.SaveDir(d, *out); err != nil {
			log.Fatal(err)
		}
		target = *out
		for _, name := range []string{"pipes.csv", "failures.csv", "meta.csv"} {
			outFiles = append(outFiles, filepath.Join(*out, name))
		}
	} else {
		// CSV in -> columnar out. Accept either an explicit .col file path
		// or a directory (then the canonical dataset.col inside it).
		target = *out
		if !strings.HasSuffix(target, ".col") {
			if err := os.MkdirAll(target, 0o755); err != nil {
				log.Fatal(err)
			}
			target = filepath.Join(target, colfmt.DatasetFile)
		} else if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
			log.Fatal(err)
		}
		if err := colfmt.WriteFile(target, d); err != nil {
			log.Fatal(err)
		}
		outFiles = []string{target}
	}
	convElapsed := time.Since(convStart)

	var bytes int64
	for _, f := range outFiles {
		st, err := os.Stat(f)
		if err != nil {
			log.Fatal(err)
		}
		bytes += st.Size()
	}
	fmt.Printf("converted %s (%s) -> %s\n", *in, format, target)
	fmt.Printf("pipes: %d  failures: %d  output bytes: %d\n", d.NumPipes(), d.NumFailures(), bytes)
	fmt.Printf("load: %s  convert+write: %s\n", loadElapsed.Round(time.Millisecond), convElapsed.Round(time.Millisecond))
}
