package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// spec is the part of BENCHMARK.json the repeat mode reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatConfig is the repeat mode's settings; bin and work pass through
// to each child run.
type repeatConfig struct {
	runs, seconds int
	firstSeed     int64
	workload      string // empty: every workload in the spec
	trace         bool
	benchFile     string
	bin, work     string
}

// repeatMode runs each workload cfg.runs times, one seed after another,
// as child processes, then prints each metric's median and interquartile
// spread (as Python's statistics.quantiles computes them) and flags any
// spread above the metric's bound in BENCHMARK.json. A run that fails a
// check, generator validity included, stays out of the medians and is
// counted.
func repeatMode(cfg repeatConfig) error {
	data, err := os.ReadFile(cfg.benchFile)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("%s: %w", cfg.benchFile, err)
	}
	bounds := map[string]float64{}
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var names []string
	for _, w := range sp.Workloads {
		if cfg.workload == "" || w.Name == cfg.workload {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("workload %q is not in %s", cfg.workload, cfg.benchFile)
	}
	bad := 0
	for _, w := range names {
		values := map[string][]float64{}
		var order []string
		for i := 0; i < cfg.runs; i++ {
			seed := cfg.firstSeed + int64(i)
			cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(cfg.seconds), "-trace", strconv.Itoa(btoi(cfg.trace)),
				"-bin", cfg.bin, "-work", cfg.work)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var line summaryLine
			if err == nil {
				err = json.Unmarshal(lines[len(lines)-1], &line)
			}
			if err != nil || !line.Correct || line.Failed > 0 {
				bad++
				fmt.Printf("%s seed %d: FAILED (err %v, correct %v, failed %d)\n%s\n", w, seed, err, line.Correct, line.Failed, out)
				continue
			}
			fmt.Printf("%s seed %d:", w, seed)
			for _, m := range sp.EndToEnd {
				if v, ok := line.Metrics[m.Name]; ok {
					fmt.Printf(" %s=%.4g", m.Name, v.Value)
				}
			}
			fmt.Println()
			for name, v := range line.Metrics {
				if _, seen := values[name]; !seen {
					order = append(order, name)
				}
				values[name] = append(values[name], v.Value)
			}
		}
		fmt.Printf("\n%-14s %-28s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
		for _, name := range order {
			v := values[name]
			q1, _, q3 := quartiles(v)
			sprd := spread(v)
			flag := ""
			if b, ok := bounds[name]; ok && sprd > b {
				flag = "  OVER BOUND"
			}
			fmt.Printf("%-14s %-28s %12.5g %12.5g %12.5g %8.4f %6.2f%s\n", w, name, pyMedian(v), q1, q3, sprd, bounds[name], flag)
		}
		fmt.Println()
	}
	if bad > 0 {
		return fmt.Errorf("%d runs failed", bad)
	}
	return nil
}
