// Package experiments contains one runner per table and figure of the
// reproduced evaluation. Each runner generates (or receives) synthetic
// region data, trains the configured models, computes the paper-analogue
// metrics, and renders the same rows/series the paper reports.
//
// The experiment IDs (T1..T6, F1..F4) and their mapping to the paper are
// documented in DESIGN.md; EXPERIMENTS.md records expected-shape versus
// measured results.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/feature"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/synthetic"
)

// Options configures an experiment run.
type Options struct {
	// Seed drives data generation and every stochastic learner.
	Seed int64
	// Scale shrinks the region presets (1 = full paper scale). Benches and
	// tests run at small scales; the default is 1.
	Scale float64
	// Regions lists the region presets to run (default A, B, C).
	Regions []string
	// Models lists the model names to evaluate (default: the standard
	// suite in StandardModelNames order).
	Models []string
	// ESGenerations overrides the DirectAUC ES generation count when > 0
	// (benches use a reduced budget).
	ESGenerations int
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if len(o.Regions) == 0 {
		o.Regions = []string{"A", "B", "C"}
	}
	if len(o.Models) == 0 {
		o.Models = StandardModelNames()
	}
	return o
}

// StandardModelNames returns the standard comparison suite in table order:
// the paper's method first, then the learned baselines, the survival
// models, the aggregate age models, and the heuristics.
func StandardModelNames() []string {
	return []string{
		"DirectAUC-ES", "RankSVM", "RankBoost", "RankNet", "Ensemble",
		"Logistic", "RandomForest", "Cox", "Weibull",
		"TimeExp", "TimePower", "TimeLinear",
		"Heuristic-Age", "Heuristic-Length", "Random",
	}
}

// NewRegistry returns a registry with the full standard suite, all seeded
// deterministically from seed. esGenerations <= 0 keeps the default budget.
func NewRegistry(seed int64, esGenerations int) *core.Registry {
	r := core.NewRegistry()
	r.Register(func() core.Model {
		cfg := core.DefaultDirectAUCConfig(seed)
		if esGenerations > 0 {
			cfg.Generations = esGenerations
		}
		return core.NewDirectAUC(cfg)
	})
	r.Register(func() core.Model { return core.NewRankSVM(core.RankSVMConfig{Seed: seed + 1}) })
	r.Register(func() core.Model { return core.NewRankBoost(core.RankBoostConfig{}) })
	r.Register(func() core.Model { return core.NewRankNet(core.RankNetConfig{Seed: seed + 5}) })
	r.Register(func() core.Model {
		cfg := core.DefaultDirectAUCConfig(seed + 11)
		if esGenerations > 0 {
			cfg.Generations = esGenerations
		}
		return core.NewEnsemble(nil,
			core.NewDirectAUC(cfg),
			core.NewRankSVM(core.RankSVMConfig{Seed: seed + 12}),
			core.NewRankBoost(core.RankBoostConfig{}),
		)
	})
	r.Register(func() core.Model { return baseline.NewLogistic(baseline.LogisticConfig{}) })
	r.Register(func() core.Model { return baseline.NewRandomForest(baseline.ForestConfig{Seed: seed + 6}) })
	r.Register(func() core.Model { return baseline.NewCox(baseline.CoxConfig{}) })
	r.Register(func() core.Model { return baseline.NewWeibullNHPP(baseline.WeibullConfig{}) })
	r.Register(func() core.Model { return baseline.NewAgeRateModel(baseline.TimeExponential) })
	r.Register(func() core.Model { return baseline.NewAgeRateModel(baseline.TimePower) })
	r.Register(func() core.Model { return baseline.NewAgeRateModel(baseline.TimeLinear) })
	r.Register(func() core.Model { return baseline.NewHeuristic(baseline.ByAge, seed+2) })
	r.Register(func() core.Model { return baseline.NewHeuristic(baseline.ByLength, seed+3) })
	r.Register(func() core.Model { return baseline.NewHeuristic(baseline.Random, seed+4) })
	return r
}

// GenerateRegion builds the named region at the configured scale and seed.
func GenerateRegion(name string, opts Options) (*dataset.Columns, *synthetic.Truth, error) {
	opts = opts.withDefaults()
	cfg, err := synthetic.Preset(name, opts.Seed)
	if err != nil {
		return nil, nil, err
	}
	cfg, err = cfg.Scaled(opts.Scale)
	if err != nil {
		return nil, nil, err
	}
	return synthetic.Generate(cfg)
}

// ModelEval is the full per-model evaluation on one split: every metric any
// table or figure needs, computed once.
type ModelEval struct {
	Model string
	// AUC is the full ROC AUC on the held-out year ("AUC 100%").
	AUC float64
	// Det1, Det5, Det10 are detection rates at 1/5/10 % of pipes inspected.
	Det1, Det5, Det10 float64
	// PAUC1 is the partial detection area up to 1 % inspected ("AUC 1%",
	// reported in basis points by the tables).
	PAUC1 float64
	// FitSeconds and ScoreSeconds are wall-clock training/scoring times.
	FitSeconds, ScoreSeconds float64
	// Scores are the raw test scores (kept for significance tests and the
	// risk map).
	Scores []float64
	// Labels are the test labels aligned with Scores.
	Labels []bool
}

// EvaluateSplit trains and evaluates the named models on one split.
// groups selects the feature groups (zero value = all). Feature sets are
// built once and shared read-only while the per-model work fans out across
// the bounded worker pool in internal/parallel; every model is independent
// and deterministic, so results do not depend on the worker count
// (wall-clock timings aside). Results come back in the order of names.
func EvaluateSplit(net *dataset.Columns, split dataset.Split, reg *core.Registry, names []string, groups feature.Groups) ([]ModelEval, error) {
	b, err := feature.NewBuilder(net, feature.Options{Groups: groups, Standardize: true})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	train, err := b.TrainSet(split)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	test, err := b.TestSet(split)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	// Dynamic assignment: per-model cost is wildly uneven (ES vs
	// closed-form baselines), and every model writes only its own slot.
	results := make([]ModelEval, len(names))
	errs := make([]error, len(names))
	parallel.New(0).ForEachDynamic(len(names), func(i int) {
		results[i], errs[i] = evalOne(net, reg, names[i], train, test)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// evalOne trains one fresh model and computes its full ModelEval. Each
// evaluation is timed twice for observability: the whole train+score
// pass into `experiments.eval_seconds.<region>.<model>`, and the fit
// alone into the shared per-model `core.fit_seconds.<model>` histogram.
func evalOne(net *dataset.Columns, reg *core.Registry, name string, train, test *feature.Set) (ModelEval, error) {
	m, err := reg.New(name)
	if err != nil {
		return ModelEval{}, err
	}
	defer obs.Span("experiments.eval_seconds." + net.Region + "." + name)()
	t0 := time.Now()
	if err := m.Fit(train); err != nil {
		return ModelEval{}, fmt.Errorf("experiments: fit %s on region %s: %w", name, net.Region, err)
	}
	fitDur := time.Since(t0)
	obs.Default().Histogram("core.fit_seconds."+name, nil).Observe(fitDur.Seconds())
	t1 := time.Now()
	scores, err := m.Scores(test)
	if err != nil {
		return ModelEval{}, fmt.Errorf("experiments: score %s: %w", name, err)
	}
	scoreDur := time.Since(t1)
	return ModelEval{
		Model:        name,
		AUC:          eval.AUC(scores, test.Label),
		Det1:         eval.DetectionAt(scores, test.Label, 0.01),
		Det5:         eval.DetectionAt(scores, test.Label, 0.05),
		Det10:        eval.DetectionAt(scores, test.Label, 0.10),
		PAUC1:        eval.PartialDetectionArea(scores, test.Label, 0.01),
		FitSeconds:   fitDur.Seconds(),
		ScoreSeconds: scoreDur.Seconds(),
		Scores:       scores,
		Labels:       append([]bool(nil), test.Label...),
	}, nil
}

// RegionResult bundles a region's network with its model evaluations.
type RegionResult struct {
	Region string
	Net    *dataset.Columns
	Evals  []ModelEval
}

// RunRegions generates each configured region, applies the paper split, and
// evaluates the configured models — the shared engine behind T2, T3 and F1.
func RunRegions(opts Options) ([]RegionResult, error) {
	opts = opts.withDefaults()
	var nets []*dataset.Columns
	for _, name := range opts.Regions {
		net, _, err := GenerateRegion(name, opts)
		if err != nil {
			return nil, err
		}
		nets = append(nets, net)
	}
	return RunNetworks(opts, nets)
}

// RunNetworks is RunRegions over already-loaded regions (e.g. datasets
// read from disk by pipeeval -data): each region gets the paper split and
// the configured model suite. Only experiments that need nothing beyond
// the observed data (T2, T3, F1) can be driven this way — sweeps that
// regenerate or perturb a region need a synthetic.Config, not loaded data.
func RunNetworks(opts Options, nets []*dataset.Columns) ([]RegionResult, error) {
	opts = opts.withDefaults()
	reg := NewRegistry(opts.Seed, opts.ESGenerations)
	var out []RegionResult
	for _, net := range nets {
		split, err := dataset.PaperSplit(net)
		if err != nil {
			return nil, err
		}
		evals, err := EvaluateSplit(net, split, reg, opts.Models, feature.Groups{})
		if err != nil {
			return nil, err
		}
		out = append(out, RegionResult{Region: net.Region, Net: net, Evals: evals})
	}
	return out, nil
}
