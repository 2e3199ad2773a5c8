// Command perfbench is the repository's end-to-end benchmark. It builds
// nothing itself: run.sh builds it together with pipegen, pipeserve and
// pipeeval, and then runs it from the root of a checkout:
//
//	bash perfbench/run.sh --workload read-mix --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --repeat 10 --seconds 20      # every workload, seeds 1..10
//
// Each run generates its inputs from --seed, drives one workload for
// --seconds, checks the outputs and prints, as its last line, one JSON
// object with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). See perfbench/README.md for the workloads and
// the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/experiments"
)

// run is one workload invocation's settings.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	bin      string // built binaries
	work     string // scratch directory of this run, removed at the end
	results  string // where run records and span files are kept
}

// saveSpans writes a traced run's spans next to its record.
func (r *run) saveSpans(tr *tracer) error {
	return writeSpans(filepath.Join(r.results, fmt.Sprintf("spans-%s-seed%d.json", r.workload, r.seed)), tr.snapshot())
}

// result is what a workload reports back to main.
type result struct {
	attempted, failed int
	problems          []string           // failed output checks
	metrics           map[string]float64 // end-to-end or per-layer values, by catalog name
	named             map[string]float64 // workload-specific figures, printed and recorded
	genLagMS          float64            // generator lateness, p99
	genValid          bool
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, named: map[string]float64{}, genValid: true}
}

func (r *result) problem(format string, args ...any) {
	if len(r.problems) < 50 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// count tallies outcomes into attempted/failed.
func (r *result) count(outs []outcome) {
	for _, o := range outs {
		r.attempted++
		if !o.ok() {
			r.failed++
			r.problem("%s op %d: %v", o.route, o.id, o.err)
		}
	}
}

// metricDef is one catalog entry of BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd is the end-to-end catalog. Every workload reports every
// entry; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"aux_p50_ms", "ms"},
}

// routes are the HTTP routes the per-layer transport and handler
// metrics are split by.
var routes = []string{"ranking", "plan", "bulkrank", "pipe", "events"}

// perLayer is the per-layer catalog. A traced run reports every entry;
// a layer its workload bypasses reads 0.
func perLayer() []metricDef {
	var defs []metricDef
	for _, r := range routes {
		defs = append(defs, metricDef{"http.transport_us." + r, "us"})
	}
	for _, r := range routes {
		defs = append(defs, metricDef{"serve.handler_us." + r, "us"})
	}
	defs = append(defs,
		metricDef{"bench.gen_lag_ms", "ms"},
		metricDef{"bench.trace_overhead_ms", "ms"},
		metricDef{"serve.plan.cache_hit_ratio", "ratio"},
		metricDef{"serve.plan.prefix_builds", "count"},
		metricDef{"serve.events.nonwal_us", "us"},
		metricDef{"serve.events.growth", "ratio"},
		metricDef{"serve.sched.rebuilds", "count"},
		metricDef{"serve.sched.useful_ratio", "ratio"},
		metricDef{"respcache.hit_ratio", "ratio"},
		metricDef{"respcache.evictions", "count"},
		metricDef{"respcache.bytes", "bytes"},
		metricDef{"plan.build_prefix_us", "us"},
		metricDef{"plan.prefix_plan_us", "us"},
		metricDef{"wal.append_us", "us"},
		metricDef{"wal.wait_durable_us", "us"},
		metricDef{"wal.fsync_p99_ms", "ms"},
		metricDef{"wal.appends_per_fsync", "ratio"},
		metricDef{"dataset.extend_live_ms", "ms"},
		metricDef{"feature.build_ms", "ms"},
		metricDef{"colfmt.open_ms", "ms"},
	)
	for _, m := range experiments.StandardModelNames() {
		defs = append(defs, metricDef{"core.fit_s." + m, "s"})
	}
	return append(defs,
		metricDef{"core.calibrate_ms", "ms"},
		metricDef{"eval.rank_ms", "ms"},
		metricDef{"eval.auc_us", "us"},
		metricDef{"proc.cpu_util", "ratio"},
	)
}

var workloads = map[string]func(*run) (*result, error){
	"read-mix":      runReadMix,
	"ingest-fresh":  runIngestFresh,
	"train-offline": runTrainOffline,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	workload := flag.String("workload", "", "workload: read-mix, ingest-fresh or train-offline")
	seed := flag.Int64("seed", 1, "workload seed: drives the generated data and the request schedule")
	seconds := flag.Int("seconds", 10, "measurement window per run, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the built pipegen, pipeserve and pipeeval")
	work := flag.String("work", ".bench_build/work", "scratch directory for generated data and logs")
	repeat := flag.Int("repeat", 0, "repeat mode: run -workload (every workload when empty) this many times, seeds -seed onwards, and report medians and spreads")
	benchFile := flag.String("bench", "BENCHMARK.json", "repeat mode: file holding the metric bounds")
	golden := flag.Int("record-golden", 0, "record the train-offline golden T2 tables for seeds 1..N and exit")
	flag.Parse()

	if *golden > 0 {
		if err := recordGolden(*bin, *work, *golden); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *repeat > 0 {
		err := repeatMode(repeatConfig{runs: *repeat, seconds: *seconds, firstSeed: *seed, workload: *workload,
			trace: *trace == 1, benchFile: *benchFile, bin: *bin, work: *work})
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	fn, ok := workloads[*workload]
	if !ok {
		log.Fatalf("unknown workload %q (want read-mix, ingest-fresh or train-offline)", *workload)
	}
	if *seconds < 1 {
		log.Fatalf("-seconds must be at least 1")
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		bin:      *bin,
		work:     filepath.Join(*work, fmt.Sprintf("%s-%d-%d-%d", *workload, *seed, *trace, os.Getpid())),
		results:  filepath.Join(filepath.Dir(*work), "results"),
	}
	for _, d := range []string{r.work, r.results} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	res, err := fn(r)
	if err != nil {
		log.Fatalf("%s: %v", *workload, err)
	}
	if err := report(r, res); err != nil {
		log.Fatal(err)
	}
	_ = os.RemoveAll(r.work)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summaryLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report prints the human-readable figures, records the full result
// with the host description under r.results, and prints the summary
// line last.
func report(r *run, res *result) error {
	// An untraced run whose generator fell behind measured the generator,
	// not the server, so it fails and no median takes it in. A traced
	// run's generator shares one Go runtime with the in-process server by
	// design, and a traced run reports no end-to-end metric.
	if !res.genValid && !r.trace {
		res.problem("generator p99 lateness %.3g ms is over %v: the generator, not the server, fell behind", res.genLagMS, maxGenLag)
	}
	defs := endToEnd
	if r.trace {
		defs = perLayer()
	}
	line := summaryLine{
		Correct:   len(res.problems) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricOut{},
	}
	if line.Attempted < 1 {
		line.Attempted = 1
		line.Correct = false
	}
	for _, d := range defs {
		v := res.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	host, _ := os.Hostname()
	envInfo := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"host":       host,
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
	fmt.Printf("# perfbench %s seed=%d seconds=%s trace=%v nproc=%d gomaxprocs=%d go=%s host=%s\n",
		r.workload, r.seed, r.seconds, r.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), host)
	names := make([]string, 0, len(res.named))
	for k := range res.named {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-40s %.6g\n", k, res.named[k])
	}
	fmt.Printf("  %-40s %.6g  (valid=%v)\n", "bench.gen_lag_p99_ms", res.genLagMS, res.genValid)
	if !res.genValid {
		fmt.Println("  WARNING: the generator fell behind its schedule; this run measures the generator, not the server")
	}
	for _, p := range res.problems {
		fmt.Println("  CHECK FAILED:", p)
	}

	full := map[string]any{
		"workload": r.workload, "seed": r.seed, "seconds": r.seconds.Seconds(), "trace": r.trace,
		"env": envInfo, "summary": line, "named": res.named, "problems": res.problems,
		"gen_lag_p99_ms": res.genLagMS, "gen_valid": res.genValid,
		"time": time.Now().UTC().Format(time.RFC3339),
	}
	data, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(r.results, fmt.Sprintf("%s-seed%d-trace%d.json", r.workload, r.seed, btoi(r.trace)))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
