package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/feature"
	"repro/internal/tune"
)

// T8Sensitivity cross-validates the proposed method's key hyperparameters
// (ES population, generations, negative-batch multiplier) on one region's
// training window — the robustness analysis an adopter runs before
// trusting the defaults. Returns the CV table sorted best-first.
func T8Sensitivity(opts Options, region string, k int) (*eval.Table, error) {
	opts = opts.withDefaults()
	if k < 2 {
		k = 3
	}
	net, _, err := GenerateRegion(region, opts)
	if err != nil {
		return nil, err
	}
	split, err := dataset.PaperSplit(net)
	if err != nil {
		return nil, err
	}
	b, err := feature.NewBuilder(net, feature.Options{})
	if err != nil {
		return nil, err
	}
	train, err := b.FactoredTrainSet(split)
	if err != nil {
		return nil, err
	}

	gens := opts.ESGenerations
	if gens <= 0 {
		gens = 120
	}
	mk := func(label string, mutate func(*core.DirectAUCConfig)) tune.Candidate {
		return tune.Candidate{
			Label: label,
			Make: func() core.Model {
				cfg := core.DefaultDirectAUCConfig(opts.Seed)
				cfg.Generations = gens
				mutate(&cfg)
				return core.NewDirectAUC(cfg)
			},
		}
	}
	cands := []tune.Candidate{
		mk("defaults", func(*core.DirectAUCConfig) {}),
		mk("mu=4,lambda=12", func(c *core.DirectAUCConfig) { c.Mu, c.Lambda = 4, 12 }),
		mk("mu=16,lambda=48", func(c *core.DirectAUCConfig) { c.Mu, c.Lambda = 16, 48 }),
		mk("half-generations", func(c *core.DirectAUCConfig) { c.Generations = gens / 2 }),
		mk("neg-batch=1x", func(c *core.DirectAUCConfig) { c.BatchNegatives = train.Positives() }),
		mk("cold-start", func(c *core.DirectAUCConfig) { c.DisableWarmStart = true }),
	}
	results, err := tune.SelectByCV(train, cands, k, opts.Seed)
	if err != nil {
		return nil, err
	}
	tb := eval.NewTable(
		fmt.Sprintf("T8 (extension): DirectAUC-ES hyperparameter sensitivity, region %s (%d-fold CV on the training window)", region, k),
		"configuration", "mean CV AUC")
	for _, r := range results {
		tb.AddRow(r.Label, eval.FormatPercent(r.MeanAUC))
	}
	return tb, nil
}

// F6Staleness measures how a model ages when not retrained: train once on
// an early window, then evaluate on each subsequent year. The gap between
// adjacent-year and far-year AUC is the cost of stale models — the
// operational argument for annual retraining.
func F6Staleness(opts Options, region string, trainYears int) (*eval.Table, error) {
	opts = opts.withDefaults()
	net, _, err := GenerateRegion(region, opts)
	if err != nil {
		return nil, err
	}
	if trainYears < 1 {
		trainYears = 6
	}
	trainTo := net.ObservedFrom + trainYears - 1
	if trainTo >= net.ObservedTo {
		return nil, fmt.Errorf("experiments: train window [%d,%d] leaves no test years", net.ObservedFrom, trainTo)
	}
	reg := NewRegistry(opts.Seed, opts.ESGenerations)

	header := []string{"model"}
	for y := trainTo + 1; y <= net.ObservedTo; y++ {
		header = append(header, fmt.Sprintf("%d", y))
	}
	tb := eval.NewTable(
		fmt.Sprintf("F6 (extension): AUC of a model trained once on %d-%d, evaluated on each later year (region %s)",
			net.ObservedFrom, trainTo, region),
		header...)

	// One builder/training per model; each later year gets its own test
	// set built against the same frozen training window.
	for _, name := range opts.Models {
		b, err := feature.NewBuilder(net, feature.Options{})
		if err != nil {
			return nil, err
		}
		baseSplit, err := dataset.NewSplit(net, net.ObservedFrom, trainTo, trainTo+1)
		if err != nil {
			return nil, err
		}
		train, err := b.TrainSet(baseSplit)
		if err != nil {
			return nil, err
		}
		m, err := reg.New(name)
		if err != nil {
			return nil, err
		}
		if err := m.Fit(train); err != nil {
			return nil, fmt.Errorf("experiments: fit %s: %w", name, err)
		}
		row := []string{name}
		for y := trainTo + 1; y <= net.ObservedTo; y++ {
			split, err := dataset.NewSplit(net, net.ObservedFrom, trainTo, y)
			if err != nil {
				return nil, err
			}
			test, err := b.TestSet(split)
			if err != nil {
				return nil, err
			}
			scores, err := m.Scores(test)
			if err != nil {
				return nil, err
			}
			row = append(row, eval.FormatPercent(eval.AUC(scores, test.Label)))
		}
		tb.AddRow(row...)
	}
	return tb, nil
}
