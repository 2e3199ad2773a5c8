package pipefail

// Benchmark harness: one benchmark per table and figure of the reproduced
// evaluation (see the experiment index in DESIGN.md), plus ablation benches
// for the design choices DESIGN.md calls out. Each benchmark regenerates
// its experiment at a reduced scale so `go test -bench=.` stays laptop-
// friendly; pass -benchtime=1x for a single replication, and use
// cmd/pipeeval for full-scale paper-shaped output.

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/feature"
	"repro/internal/stats"
)

// benchOpts is the reduced-scale configuration shared by the benches.
func benchOpts(models ...string) experiments.Options {
	return experiments.Options{
		Seed:          1,
		Scale:         0.05,
		Regions:       []string{"A", "B", "C"},
		Models:        models,
		ESGenerations: 20,
	}
}

func BenchmarkT1DatasetSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.T1DatasetSummary(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if tb.NumRows() == 0 {
			b.Fatal("empty summary")
		}
	}
}

func BenchmarkT2AUCTable(b *testing.B) {
	opts := benchOpts("DirectAUC-ES", "RankSVM", "Logistic", "Cox", "Weibull")
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunRegions(opts)
		if err != nil {
			b.Fatal(err)
		}
		if experiments.T2AUCTable(results).NumRows() != 5 {
			b.Fatal("unexpected table shape")
		}
	}
}

func BenchmarkT3Budget(b *testing.B) {
	opts := benchOpts("DirectAUC-ES", "Cox")
	opts.Regions = []string{"A"}
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunRegions(opts)
		if err != nil {
			b.Fatal(err)
		}
		if experiments.T3BudgetTable(results).NumRows() != 2 {
			b.Fatal("unexpected table shape")
		}
	}
}

func BenchmarkF1DetectionCurves(b *testing.B) {
	opts := benchOpts("DirectAUC-ES", "Cox", "TimeExp")
	opts.Regions = []string{"A"}
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunRegions(opts)
		if err != nil {
			b.Fatal(err)
		}
		if experiments.F1DetectionSeries(results, nil).NumRows() != 3 {
			b.Fatal("unexpected series shape")
		}
	}
}

func BenchmarkT4Significance(b *testing.B) {
	opts := benchOpts("DirectAUC-ES", "Cox", "Heuristic-Age")
	opts.Regions = []string{"A"}
	for i := 0; i < b.N; i++ {
		res, err := experiments.T4Significance(opts, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != 2 {
			b.Fatal("unexpected result count")
		}
	}
}

func BenchmarkF2Window(b *testing.B) {
	opts := benchOpts("DirectAUC-ES", "Cox")
	opts.Regions = []string{"A"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.F2WindowSweep(opts, []int{2, 5, 11}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT5Ablation(b *testing.B) {
	opts := benchOpts("DirectAUC-ES")
	opts.Regions = []string{"A"}
	for i := 0; i < b.N; i++ {
		res, err := experiments.T5Ablation(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != 7 {
			b.Fatal("unexpected ablation rows")
		}
	}
}

func BenchmarkF3Scalability(b *testing.B) {
	opts := benchOpts("DirectAUC-ES", "Logistic")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.F3Scalability(opts, []int{500, 1000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT6PipeClass(b *testing.B) {
	opts := benchOpts("Cox")
	opts.Regions = []string{"A"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.T6ClassBreakdown(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF4RiskMap(b *testing.B) {
	opts := benchOpts("Cox")
	opts.Regions = []string{"A"}
	for i := 0; i < b.N; i++ {
		rm, err := experiments.F4RiskMap(opts, "A")
		if err != nil {
			b.Fatal(err)
		}
		if err := rm.WriteSVG(io.Discard, 400); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF5Renewal(b *testing.B) {
	opts := benchOpts("Logistic")
	for i := 0; i < b.N; i++ {
		tb, err := experiments.F5RenewalImpact(opts, "A", 0.02, 3)
		if err != nil {
			b.Fatal(err)
		}
		if tb.NumRows() != 4 {
			b.Fatal("unexpected policy rows")
		}
	}
}

// --- Ablation benches for the design choices called out in DESIGN.md ---

// benchSets prepares one reduced-scale train/test pair for learner-level
// ablations.
func benchSets(b *testing.B) (*feature.Set, *feature.Set) {
	b.Helper()
	net, err := GenerateRegion("A", 1, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	split, err := dataset.PaperSplit(net)
	if err != nil {
		b.Fatal(err)
	}
	fb, err := feature.NewBuilder(net, feature.Options{})
	if err != nil {
		b.Fatal(err)
	}
	train, err := fb.TrainSet(split)
	if err != nil {
		b.Fatal(err)
	}
	test, err := fb.TestSet(split)
	if err != nil {
		b.Fatal(err)
	}
	return train, test
}

// BenchmarkAblationLearners compares the three ranking learners of the
// framework on identical data (direct ES vs convex surrogate vs boosting).
func BenchmarkAblationLearners(b *testing.B) {
	train, test := benchSets(b)
	learners := map[string]func() core.Model{
		"DirectAUC": func() core.Model {
			return core.NewDirectAUC(core.DirectAUCConfig{Seed: 1, Generations: 20})
		},
		"RankSVM":   func() core.Model { return core.NewRankSVM(core.RankSVMConfig{Seed: 1}) },
		"RankBoost": func() core.Model { return core.NewRankBoost(core.RankBoostConfig{Rounds: 40}) },
	}
	for name, mk := range learners {
		b.Run(name, func(b *testing.B) {
			var auc float64
			for i := 0; i < b.N; i++ {
				m := mk()
				if err := m.Fit(train); err != nil {
					b.Fatal(err)
				}
				scores, err := m.Scores(test)
				if err != nil {
					b.Fatal(err)
				}
				auc = eval.AUC(scores, test.Label)
			}
			b.ReportMetric(auc, "test-AUC")
		})
	}
}

// BenchmarkAblationAUCFitness compares the sampled-pair fitness against
// exact full-set AUC fitness in the ES (cost vs fidelity).
func BenchmarkAblationAUCFitness(b *testing.B) {
	train, test := benchSets(b)
	cases := map[string]core.DirectAUCConfig{
		"sampled": {Seed: 1, Generations: 20},
		"exact":   {Seed: 1, Generations: 20, BatchNegatives: train.Len()},
	}
	for name, cfg := range cases {
		b.Run(name, func(b *testing.B) {
			var auc float64
			for i := 0; i < b.N; i++ {
				m := core.NewDirectAUC(cfg)
				if err := m.Fit(train); err != nil {
					b.Fatal(err)
				}
				scores, err := m.Scores(test)
				if err != nil {
					b.Fatal(err)
				}
				auc = eval.AUC(scores, test.Label)
			}
			b.ReportMetric(auc, "test-AUC")
		})
	}
}

// BenchmarkAblationWarmStart measures the value of seeding the ES with the
// convex surrogate solution.
func BenchmarkAblationWarmStart(b *testing.B) {
	train, test := benchSets(b)
	cases := map[string]core.DirectAUCConfig{
		"warm": {Seed: 1, Generations: 20},
		"cold": {Seed: 1, Generations: 20, DisableWarmStart: true},
	}
	for name, cfg := range cases {
		b.Run(name, func(b *testing.B) {
			var auc float64
			for i := 0; i < b.N; i++ {
				m := core.NewDirectAUC(cfg)
				if err := m.Fit(train); err != nil {
					b.Fatal(err)
				}
				scores, err := m.Scores(test)
				if err != nil {
					b.Fatal(err)
				}
				auc = eval.AUC(scores, test.Label)
			}
			b.ReportMetric(auc, "test-AUC")
		})
	}
}

// BenchmarkAblationCalibration compares Platt and isotonic calibration of
// the ranking scores (Brier score reported; lower is better).
func BenchmarkAblationCalibration(b *testing.B) {
	train, test := benchSets(b)
	m := core.NewDirectAUC(core.DirectAUCConfig{Seed: 1, Generations: 20})
	if err := m.Fit(train); err != nil {
		b.Fatal(err)
	}
	trainScores, err := m.Scores(train)
	if err != nil {
		b.Fatal(err)
	}
	testScores, err := m.Scores(test)
	if err != nil {
		b.Fatal(err)
	}
	calibs := map[string]func() core.Calibrator{
		"platt":    func() core.Calibrator { return &core.PlattCalibrator{} },
		"isotonic": func() core.Calibrator { return &core.IsotonicCalibrator{} },
	}
	for name, mk := range calibs {
		b.Run(name, func(b *testing.B) {
			var brier float64
			for i := 0; i < b.N; i++ {
				c := mk()
				if err := c.FitCal(trainScores, train.Label); err != nil {
					b.Fatal(err)
				}
				brier = 0
				for j, s := range testScores {
					y := 0.0
					if test.Label[j] {
						y = 1
					}
					d := c.Prob(s) - y
					brier += d * d
				}
				brier /= float64(len(testScores))
			}
			b.ReportMetric(brier, "brier")
		})
	}
}

// BenchmarkAblationLabels compares next-year binary labels against
// cumulative-count labels (does richer label construction change the
// ranking quality of the convex learner?).
func BenchmarkAblationLabels(b *testing.B) {
	net, err := GenerateRegion("A", 1, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	split, err := dataset.PaperSplit(net)
	if err != nil {
		b.Fatal(err)
	}
	fb, err := feature.NewBuilder(net, feature.Options{})
	if err != nil {
		b.Fatal(err)
	}
	train, err := fb.TrainSet(split)
	if err != nil {
		b.Fatal(err)
	}
	test, err := fb.TestSet(split)
	if err != nil {
		b.Fatal(err)
	}
	// Cumulative variant: relabel an instance positive when the pipe fails
	// in the instance year OR any earlier training year (a noisier, more
	// abundant positive set). The twin shares the rows; an instance's year
	// is its pipe's laid year plus its age.
	cumTrain := *train
	cumTrain.Label = make([]bool, train.Len())
	for i, p := range train.PipeIdx {
		year := int(net.Registry.LaidYear[p]) + int(train.Age[i])
		cumTrain.Label[i] = net.FailureCount(p, split.TrainFrom, year) > 0
	}
	cases := map[string]*feature.Set{"next-year": train, "cumulative": &cumTrain}
	for name, tr := range cases {
		b.Run(name, func(b *testing.B) {
			var auc float64
			for i := 0; i < b.N; i++ {
				m := core.NewRankSVM(core.RankSVMConfig{Seed: 1})
				if err := m.Fit(tr); err != nil {
					b.Fatal(err)
				}
				scores, err := m.Scores(test)
				if err != nil {
					b.Fatal(err)
				}
				auc = eval.AUC(scores, test.Label)
			}
			b.ReportMetric(auc, "test-AUC")
		})
	}
}

// BenchmarkDirectAUCParallel measures the intra-model parallel training
// engine: the same DirectAUC fit at 1, 2, 4 and GOMAXPROCS fitness
// workers. Exact (full-batch) fitness makes the fanned-out evaluation
// dominate, which is the regime network-scale training runs in. Results
// are bit-identical across worker counts (see
// TestDirectAUCDeterministicAcrossWorkers in internal/core); only
// wall-clock changes. On a multi-core host the 4-worker case is expected
// to be >= 2x faster than workers=1; on a single-core host the fan-out
// is near-neutral (chunked goroutines, no per-item overhead).
func BenchmarkDirectAUCParallel(b *testing.B) {
	train, _ := benchSets(b)
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := core.NewDirectAUC(core.DirectAUCConfig{
					Seed: 1, Generations: 20, BatchNegatives: train.Len(), Workers: w,
				})
				if err := m.Fit(train); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAUCKernel measures the core AUC computation itself.
func BenchmarkAUCKernel(b *testing.B) {
	rng := stats.NewRNG(1)
	n := 100000
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = rng.Float64()
		labels[i] = rng.Bernoulli(0.03)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a := eval.AUC(scores, labels); a < 0.4 || a > 0.6 {
			b.Fatalf("AUC %v", a)
		}
	}
	b.ReportMetric(float64(n), "instances")
}

// BenchmarkPipelineEndToEnd measures the full public-API flow.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	net, err := GenerateRegion("A", 1, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		p, err := NewPipeline(net, WithSeed(int64(i)), WithESGenerations(15))
		if err != nil {
			b.Fatal(err)
		}
		ranking, err := p.TrainAndRank("DirectAUC-ES")
		if err != nil {
			b.Fatal(err)
		}
		if ranking.Len() == 0 {
			b.Fatal("empty ranking")
		}
	}
}

// BenchmarkGenerate measures the synthetic-data generator at bench scale.
func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, err := GenerateRegion("A", int64(i), 0.1)
		if err != nil {
			b.Fatal(err)
		}
		if net.NumFailures() == 0 {
			b.Fatal("no failures generated")
		}
	}
}

// Example-style smoke check so `go test` exercises the fmt path of tables.
func ExampleModels() {
	fmt.Println(Models()[0])
	// Output: DirectAUC-ES
}
