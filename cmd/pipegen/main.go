// Command pipegen generates a synthetic water-pipe network — the
// documented substitution for the proprietary utility data of the
// reproduced paper — and writes it as CSV (pipes.csv, failures.csv,
// meta.csv) or as the binary columnar format (dataset.col).
//
// Generation streams: pipe rows go straight to the output writer (CSV) or
// into compact column arrays (columnar), so resident memory stays flat in
// the registry size and the nation-scale presets (~1M pipes) generate
// without materializing a []Pipe.
//
// Usage:
//
//	pipegen -region A -seed 42 -scale 0.25 -out data/regionA
//	pipegen -region nation -seed 1 -format col -out data/nation
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

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

	cfg, err := synthetic.Preset(*region, *seed)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err = cfg.Scaled(*scale)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	var sum *synthetic.StreamSummary
	switch *format {
	case "csv":
		sum, err = generateCSV(cfg, *out)
	case "col":
		sum, err = generateColumnar(cfg, *out)
	default:
		log.Fatalf("unknown -format %q (want csv or col)", *format)
	}
	if err != nil {
		log.Fatal(err)
	}

	tb := eval.NewTable(fmt.Sprintf("generated region %s (seed %d, scale %.2f) -> %s",
		*region, *seed, *scale, *out),
		"scope", "pipes", "failures", "laid", "km")
	for _, row := range sum.Rows {
		tb.AddRow(row.Scope,
			fmt.Sprintf("%d", row.NumPipes),
			fmt.Sprintf("%d", row.NumFailures),
			fmt.Sprintf("%d-%d", row.LaidFrom, row.LaidTo),
			fmt.Sprintf("%.0f", row.TotalKM))
	}
	fmt.Print(tb.String())
	fmt.Printf("true failures before recording noise: %d\n", sum.TrueFailures)
}

// generateCSV streams pipe rows directly into pipes.csv. Failures are
// buffered (they are ~25x fewer than pipes) because the on-disk log is
// sorted by (Year, Day, PipeID) — the same stable order dataset.FromRows
// imposes — while generation emits them grouped by pipe.
func generateCSV(cfg synthetic.Config, dir string) (*synthetic.StreamSummary, error) {
	pipesF, err := os.Create(filepath.Join(dir, "pipes.csv"))
	if err != nil {
		return nil, err
	}
	defer pipesF.Close()
	bw := bufio.NewWriterSize(pipesF, 1<<20)
	pw, err := dataset.NewPipeWriter(bw)
	if err != nil {
		return nil, err
	}

	var fails []dataset.Failure
	sum, err := synthetic.GenerateStream(cfg,
		func(p *dataset.Pipe) error { return pw.Write(p) },
		func(f *dataset.Failure) error { fails = append(fails, *f); return nil })
	if err != nil {
		return nil, err
	}
	if err := pw.Flush(); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	if err := pipesF.Close(); err != nil {
		return nil, err
	}

	sortFailures(fails)
	if err := writeTo(filepath.Join(dir, "failures.csv"), func(w *bufio.Writer) error {
		return dataset.WriteFailures(w, fails)
	}); err != nil {
		return nil, err
	}
	if err := writeTo(filepath.Join(dir, "meta.csv"), func(w *bufio.Writer) error {
		return dataset.WriteMeta(w, cfg.Region, cfg.ObservedFrom, cfg.ObservedTo)
	}); err != nil {
		return nil, err
	}
	return sum, nil
}

// generateColumnar streams pipe rows into column arrays and writes one
// PCOL file. Events reference pipes by registry row, which is known at
// emission time (a pipe's failures follow its own row), so no ID join is
// needed; they are then sorted into the canonical (Year, Day, ID) order so
// the file is byte-identical to converting the equivalent CSV directory.
func generateColumnar(cfg synthetic.Config, dir string) (*synthetic.StreamSummary, error) {
	d := &dataset.Columns{
		Region:       cfg.Region,
		ObservedFrom: cfg.ObservedFrom,
		ObservedTo:   cfg.ObservedTo,
	}
	type event struct {
		pipe               uint32
		segment, year, day int32
		mode               dataset.FailureMode
	}
	var events []event

	c := &d.Registry
	sum, err := synthetic.GenerateStream(cfg,
		func(p *dataset.Pipe) error { c.Append(p); return nil },
		func(f *dataset.Failure) error {
			// The generator emits a pipe's failures right after the pipe
			// itself, so the row reference is the last appended row.
			events = append(events, event{
				pipe:    uint32(len(c.ID) - 1),
				segment: int32(f.Segment),
				year:    int32(f.Year),
				day:     int32(f.Day),
				mode:    f.Mode,
			})
			return nil
		})
	if err != nil {
		return nil, err
	}

	sort.SliceStable(events, func(a, b int) bool {
		ea, eb := &events[a], &events[b]
		if ea.year != eb.year {
			return ea.year < eb.year
		}
		if ea.day != eb.day {
			return ea.day < eb.day
		}
		return c.ID[ea.pipe] < c.ID[eb.pipe]
	})
	e := &d.Events
	e.Pipe = make([]uint32, len(events))
	e.Segment = make([]int32, len(events))
	e.Year = make([]int32, len(events))
	e.Day = make([]int32, len(events))
	e.Mode = make([]dataset.FailureMode, len(events))
	for i := range events {
		e.Pipe[i] = events[i].pipe
		e.Segment[i] = events[i].segment
		e.Year[i] = events[i].year
		e.Day[i] = events[i].day
		e.Mode[i] = events[i].mode
	}

	if err := colfmt.WriteFile(filepath.Join(dir, colfmt.DatasetFile), d); err != nil {
		return nil, err
	}
	return sum, nil
}

func sortFailures(fails []dataset.Failure) {
	sort.SliceStable(fails, func(a, b int) bool {
		fa, fb := &fails[a], &fails[b]
		if fa.Year != fb.Year {
			return fa.Year < fb.Year
		}
		if fa.Day != fb.Day {
			return fa.Day < fb.Day
		}
		return fa.PipeID < fb.PipeID
	})
}

func writeTo(path string, fn func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := fn(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
