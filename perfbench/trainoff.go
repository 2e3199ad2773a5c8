package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// train-offline: the paper's model comparison (pipeeval -exp T2) over a
// generated PCOL dataset, repeated for the window. Nothing is served.
const (
	trainRegion = "A"
	trainScale  = 0.05
	// trainSetups timed set-ups of about 5 ms each, after trainWarmups
	// untimed ones so that none is charged for a cold process. On a
	// 2-vCPU host the median still spreads 0.20-0.33 over ten seeds; it
	// rises and falls with the suite times of the same runs, so most of
	// that is the host's speed drifting over minutes.
	trainWarmups = 30
	trainSetups  = 101
	// goldenFile holds the T2 table for each recorded seed at trainScale.
	goldenFile = "perfbench/golden_t2.json"
)

// suiteRun is one pipeeval invocation.
type suiteRun struct {
	wall   time.Duration
	cpu    time.Duration
	peakMB float64
	table  string
	fitS   map[string]float64 // model -> summed fit seconds
}

func runSuite(r *run, dir string) (suiteRun, error) {
	t0 := time.Now()
	out, ps, err := runTool(r.bin, "pipeeval", "-data", dir, "-exp", "T2", "-metrics")
	wall := time.Since(t0)
	if err != nil {
		return suiteRun{}, err
	}
	s := suiteRun{wall: wall, cpu: ps.UserTime() + ps.SystemTime(), fitS: map[string]float64{}}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		s.peakMB = float64(ru.Maxrss) / 1024
	}
	table, metricsJSON, err := splitEvalOutput(out)
	if err != nil {
		return s, err
	}
	s.table = table
	var snap obs.Snapshot
	if err := json.Unmarshal(metricsJSON, &snap); err != nil {
		return s, fmt.Errorf("pipeeval metrics: %w", err)
	}
	for name, h := range snap.Histograms {
		if m, ok := strings.CutPrefix(name, "core.fit_seconds."); ok {
			s.fitS[m] = h.Sum
		}
	}
	return s, nil
}

// splitEvalOutput cuts pipeeval's stdout into the T2 table and the
// metrics JSON.
func splitEvalOutput(out []byte) (string, []byte, error) {
	const t2, met = "== T2 ==\n", "== metrics ==\n"
	i, j := bytes.Index(out, []byte(t2)), bytes.Index(out, []byte(met))
	if i < 0 || j < i {
		return "", nil, fmt.Errorf("pipeeval output lacks the T2 table or the metrics: %.300s", out)
	}
	return strings.TrimSpace(string(out[i+len(t2) : j])), out[j+len(met):], nil
}

// inProcessT2 computes the T2 table through the library, the way
// pipeeval does, for seeds with no recorded golden table.
func inProcessT2(dir string) (string, error) {
	net, err := pipefail.LoadNetwork(dir)
	if err != nil {
		return "", err
	}
	res, err := experiments.RunNetworks(experiments.Options{Seed: 1}, []*pipefail.Network{net})
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(experiments.T2AUCTable(res).String()), nil
}

func loadGolden() map[string]string {
	g := map[string]string{}
	if data, err := os.ReadFile(goldenFile); err == nil {
		_ = json.Unmarshal(data, &g)
	}
	return g
}

// recordGolden computes and stores the T2 table for seeds 1..n.
func recordGolden(bin, work string, n int) error {
	g := map[string]string{}
	for seed := 1; seed <= n; seed++ {
		dir := filepath.Join(work, "golden", strconv.Itoa(seed))
		if err := generate(bin, trainRegion, int64(seed), trainScale, dir); err != nil {
			return err
		}
		table, err := inProcessT2(dir)
		if err != nil {
			return err
		}
		g[strconv.Itoa(seed)] = table
		_ = os.RemoveAll(dir)
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenFile, append(data, '\n'), 0o644)
}

// trainSetup is the set-up a training run pays before fitting: open the
// dataset and build the features.
func trainSetup(dir string) error {
	data, err := pipefail.OpenData(dir)
	if err != nil {
		return err
	}
	_, err = pipefail.NewPipelineData(data, pipefail.WithSeed(1))
	return err
}

func runTrainOffline(r *run) (*result, error) {
	res := newResult()
	dir := filepath.Join(r.work, "data", trainRegion)
	if err := generate(r.bin, trainRegion, r.seed, trainScale, dir); err != nil {
		return nil, err
	}
	var setupS []float64
	for i := 0; i < trainWarmups+trainSetups; i++ {
		// Each set-up starts from a collected heap, so none is charged
		// for garbage the one before it left.
		runtime.GC()
		t0 := time.Now()
		if err := trainSetup(dir); err != nil {
			return nil, err
		}
		if i >= trainWarmups {
			setupS = append(setupS, time.Since(t0).Seconds())
		}
	}
	res.metrics["setup_s"] = median(setupS)
	if r.trace {
		return res, traceTraining(res, r, dir)
	}

	// Run the suite back to back until the window is used up.
	var runs []suiteRun
	start := time.Now()
	for len(runs) == 0 || time.Since(start) < r.seconds {
		s, err := runSuite(r, dir)
		res.attempted++
		if err != nil {
			res.failed++
			res.problem("pipeeval: %v", err)
			break
		}
		runs = append(runs, s)
	}
	if len(runs) == 0 {
		return res, nil
	}
	var walls, cpu, peak, fitMS []float64
	fits := map[string][]float64{}
	for _, s := range runs {
		walls = append(walls, ms(s.wall))
		cpu = append(cpu, s.cpu.Seconds()/(s.wall.Seconds()*float64(runtime.NumCPU())))
		peak = append(peak, s.peakMB)
		total := 0.0
		for m, v := range s.fitS {
			fits[m] = append(fits[m], v)
			total += v
		}
		fitMS = append(fitMS, total*1000)
		if s.table != runs[0].table {
			res.problem("T2 table differs between repeats of one dataset")
		}
	}
	wd := summarize(walls)
	res.metrics["op_p50_ms"] = wd.P50
	res.metrics["op_tail_ms"] = wd.Max
	res.metrics["aux_p50_ms"] = median(fitMS)
	res.metrics["peak_rss_mb"] = median(peak)
	res.named["train_suite_s"] = wd.P50 / 1000
	res.named["train_suite_runs"] = float64(len(runs))
	res.named["proc.cpu_util"] = median(cpu)
	for m, v := range fits {
		res.named["core.fit_s."+m] = median(v)
	}

	want, ok := loadGolden()[strconv.FormatInt(r.seed, 10)]
	if !ok {
		var err error
		if want, err = inProcessT2(dir); err != nil {
			return nil, err
		}
		res.named["golden_computed_in_process"] = 1
	}
	if runs[0].table != want {
		res.problem("T2 table differs from the golden table for seed %d:\n%s\nwant:\n%s", r.seed, runs[0].table, want)
	}
	return res, nil
}

// traceTraining replays the suite in-process through the retrain chain
// (open, feature build, then fit, rank and calibrate per model) in four
// passes, untraced, traced, traced, untraced, so warm-up favours
// neither side. The traced passes give the per-layer times; the mean
// difference between the sides is the tracing overhead.
func traceTraining(res *result, r *run, dir string) error {
	tr := newTracer()
	var traced, untraced time.Duration
	var cpu time.Duration
	for _, t := range []*tracer{nil, tr, tr, nil} {
		var ru0, ru1 syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
		t0 := time.Now()
		if err := retrainChain(newResult(), t, dir, nil, nil, experiments.StandardModelNames(), nil); err != nil {
			return err
		}
		wall := time.Since(t0)
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
		if t == nil {
			untraced += wall
			continue
		}
		traced += wall
		cpu += time.Duration(syscall.TimevalToNsec(ru1.Utime) - syscall.TimevalToNsec(ru0.Utime) +
			syscall.TimevalToNsec(ru1.Stime) - syscall.TimevalToNsec(ru0.Stime))
	}
	res.metrics["proc.cpu_util"] = cpu.Seconds() / (traced.Seconds() * float64(runtime.GOMAXPROCS(0)))
	res.metrics["bench.trace_overhead_ms"] = ms(traced-untraced) / 2
	res.attempted = 4
	layerTimes(res, tr.snapshot())
	res.named["train_replay_untraced_s"] = untraced.Seconds() / 2
	res.named["train_replay_traced_s"] = traced.Seconds() / 2
	return r.saveSpans(tr)
}
