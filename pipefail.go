// Package pipefail is the public API of the reproduction of "Pipe Failure
// Prediction: A Data Mining Method" (Wang, Dong, Wang, Tang, Yao — ICDE
// 2013): a ranking-based data-mining toolkit for water-pipe failure
// prediction.
//
// The typical flow is: obtain a region's data (load a utility export with
// OpenData, or simulate one with GenerateRegion), build a Pipeline for a
// temporal split, train any registered model, and consume the resulting
// Ranking — the ordered list of pipes to inspect — or the evaluation
// metrics against the held-out year.
//
//	net, _ := pipefail.GenerateRegion("A", 42, 0.25)
//	p, _ := pipefail.NewPipeline(net)
//	ranking, _ := p.TrainAndRank("DirectAUC-ES")
//	fmt.Println(ranking.AUC(), ranking.TopIDs(10))
//
// The model suite contains the paper's direct-AUC evolutionary ranker plus
// every compared baseline; Models lists the names.
package pipefail

import (
	"context"
	"fmt"

	"repro/internal/colfmt"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/feature"
	"repro/internal/obs"
	"repro/internal/tune"
)

// Network is Data under its former name, kept for existing callers.
type Network = dataset.Columns

// Pipe is one water main with its attributes and environmental factors.
type Pipe = dataset.Pipe

// Failure is one recorded failure event.
type Failure = dataset.Failure

// Split is a temporal train/test partition.
type Split = dataset.Split

// Renewal is a live registry update (pipe replaced in Year); see
// Data.ExtendLive and the streaming-ingest path in internal/serve.
type Renewal = dataset.Renewal

// Model is the interface every ranker and baseline implements.
type Model = core.Model

// CurvePoint is one point of a detection or ROC curve.
type CurvePoint = eval.CurvePoint

// Models returns the names of every available model, paper's method first.
func Models() []string { return experiments.StandardModelNames() }

// GenerateRegion simulates one of the calibrated metropolitan region
// presets ("A", "B" or "C") at the given scale (1 = full size, ~12-18k
// pipes). The same (name, seed, scale) always yields the same data.
// A scale outside (0, 1] is an error.
func GenerateRegion(name string, seed int64, scale float64) (*Data, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("pipefail: scale factor %v out of (0,1]", scale)
	}
	net, _, err := experiments.GenerateRegion(name, experiments.Options{Seed: seed, Scale: scale})
	return net, err
}

// LoadNetwork is OpenData under its former name.
func LoadNetwork(path string) (*Data, error) { return OpenData(path) }

// SaveNetwork writes a region to a directory as the CSV trio.
func SaveNetwork(data *Data, dir string) error { return dataset.SaveDir(data, dir) }

// Data is one region, its pipe registry and failure log, in columnar
// form: the one in-memory form of a dataset and the one input of the
// feature pipeline, whose column arrays feed the design matrices without
// materializing per-pipe structs. Region, ObservedFrom and ObservedTo are
// plain fields; Pipes and Failures materialize rows.
type Data = dataset.Columns

// OpenData loads and validates the dataset at path with format sniffing:
// a regular file is read as PCOL columnar, a directory prefers dataset.col
// over the CSV trio written by SaveNetwork. Both formats are checked by the
// same rules. A PCOL load keeps the file's event order and builds no
// pipe-ID index, so OpenData followed by NewPipelineData is the one-pass
// training path.
func OpenData(path string) (*Data, error) {
	d, _, err := colfmt.Open(path)
	return d, err
}

// Pipeline binds a region to a temporal split and a fitted feature
// encoding, and trains models against it.
//
// A Pipeline holds the fitted feature builder (the standardization
// statistics and the registry columns it reads) and the held-out test
// set, never the pipe-year training set: every learned fit builds its own
// set from the builder and drops it when the fit returns, so Train pays
// that build on every call: for full-scale region A on two vCPUs, 6–10
// ms and 6 MiB for the factored set DirectAUC-ES gets, 15–35 ms and 49
// MiB for the dense matrix every other learner gets. Models that learn
// nothing from data are fitted without it. Concurrent Train calls are
// safe; each builds its own set.
type Pipeline struct {
	ids   []string // registry pipe IDs, by row
	split Split
	seed  int64

	b    *feature.Builder // fitted on split's training window; read-only
	test *feature.Set
	reg  *core.Registry
}

// PipelineOption customizes NewPipeline.
type PipelineOption func(*pipelineConfig)

type pipelineConfig struct {
	split   *Split
	seed    int64
	esGens  int
	groups  feature.Groups
	haveGrp bool
}

// WithSplit uses an explicit temporal split instead of the paper default
// (all years but the last for training).
func WithSplit(s Split) PipelineOption {
	return func(c *pipelineConfig) { c.split = &s }
}

// WithSeed seeds the stochastic learners (default 1).
func WithSeed(seed int64) PipelineOption {
	return func(c *pipelineConfig) { c.seed = seed }
}

// WithESGenerations overrides the DirectAUC evolution budget (useful for
// quick experiments).
func WithESGenerations(g int) PipelineOption {
	return func(c *pipelineConfig) { c.esGens = g }
}

// WithFeatureGroups restricts the feature groups (see the ablation
// experiment). The zero Groups value means all groups.
func WithFeatureGroups(g feature.Groups) PipelineOption {
	return func(c *pipelineConfig) { c.groups = g; c.haveGrp = true }
}

// FeatureGroups re-exports the feature-group selector for WithFeatureGroups.
type FeatureGroups = feature.Groups

// NewPipeline is NewPipelineData under its former name.
func NewPipeline(data *Data, opts ...PipelineOption) (*Pipeline, error) {
	return NewPipelineData(data, opts...)
}

// NewPipelineData prepares the feature sets for the region under the
// paper's protocol (all observed years but the last for training) or the
// split given via WithSplit. The feature matrices fill straight from the
// column arrays with no intermediate per-pipe structs.
func NewPipelineData(data *Data, opts ...PipelineOption) (*Pipeline, error) {
	if data == nil {
		return nil, fmt.Errorf("pipefail: nil data")
	}
	cfg := pipelineConfig{seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	var split Split
	if cfg.split != nil {
		split = *cfg.split
	} else {
		from, to := data.ObservedFrom, data.ObservedTo
		if to-1 < from {
			return nil, fmt.Errorf("pipefail: observation window [%d, %d] leaves no training years before the held-out year", from, to)
		}
		split = Split{TrainFrom: from, TrainTo: to - 1, TestYear: to}
	}
	b, err := feature.NewBuilder(data, feature.Options{Groups: cfg.groups, Standardize: true})
	if err != nil {
		return nil, fmt.Errorf("pipefail: %w", err)
	}
	if err := b.Fit(split); err != nil {
		return nil, fmt.Errorf("pipefail: %w", err)
	}
	test, err := b.TestSet(split)
	if err != nil {
		return nil, fmt.Errorf("pipefail: %w", err)
	}
	return &Pipeline{
		ids: data.Registry.ID, split: split, seed: cfg.seed,
		b: b, test: test,
		reg: experiments.NewRegistry(cfg.seed, cfg.esGens),
	}, nil
}

// Split returns the pipeline's temporal split.
func (p *Pipeline) Split() Split { return p.split }

// FeatureNames returns the expanded design-matrix column names.
func (p *Pipeline) FeatureNames() []string { return p.b.Names() }

// Train fits a fresh instance of the named model on the training window
// and returns it. A learned model's fit first builds the pipe-year
// training set, on every call, and drops it on return. Fit wall-clock,
// without that build, is recorded into the per-model
// `core.fit_seconds.<model>` histogram (see DESIGN.md, Observability).
func (p *Pipeline) Train(modelName string) (Model, error) {
	return p.TrainContext(context.Background(), modelName)
}

// TrainContext is Train with cooperative cancellation: models that
// implement core.ContextFitter (the ES, RankBoost, RankNet, RankSVM and
// the Ensemble) abort promptly at their next generation/round/epoch
// boundary when ctx is cancelled; the millisecond-scale baselines are
// checked once before fitting. An uncancelled TrainContext run is
// bit-identical to Train. Cancelled fits record nothing into the
// fit-duration histogram.
func (p *Pipeline) TrainContext(ctx context.Context, modelName string) (Model, error) {
	m, err := p.reg.New(modelName)
	if err != nil {
		return nil, err
	}
	if df, ok := m.(dataFree); ok {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("pipefail: %s: fit cancelled: %w", m.Name(), err)
		}
		done := obs.Span("core.fit_seconds." + modelName)
		df.FitDataFree()
		done()
		return m, nil
	}
	// The builder is fitted on p.split, so building a set only reads it:
	// concurrent fits each build, and drop, their own set.
	build := p.b.TrainSet
	if _, ok := m.(*core.DirectAUC); ok {
		build = p.b.FactoredTrainSet
	}
	train, err := build(p.split)
	if err != nil {
		return nil, fmt.Errorf("pipefail: %w", err)
	}
	done := obs.Span("core.fit_seconds." + modelName)
	if err := core.FitModel(ctx, m, train); err != nil {
		return nil, fmt.Errorf("pipefail: %w", err)
	}
	done()
	return m, nil
}

// dataFree is implemented by the heuristic baselines, which learn
// nothing from training data: TrainContext fits them without building
// the pipe-year training set.
type dataFree interface{ FitDataFree() }

// Rank scores the held-out year with a fitted model.
func (p *Pipeline) Rank(m Model) (*Ranking, error) {
	scores, err := m.Scores(p.test)
	if err != nil {
		return nil, fmt.Errorf("pipefail: %w", err)
	}
	return p.rankingFromScores(m.Name(), scores), nil
}

// TrainAndRank is Train followed by Rank.
func (p *Pipeline) TrainAndRank(modelName string) (*Ranking, error) {
	m, err := p.Train(modelName)
	if err != nil {
		return nil, err
	}
	return p.Rank(m)
}

func (p *Pipeline) rankingFromScores(model string, scores []float64) *Ranking {
	n := p.test.Len()
	r := &Ranking{
		Model: model, TestYear: p.split.TestYear,
		PipeIDs: make([]string, 0, n), Rows: make([]int, 0, n), Scores: make([]float64, 0, n),
		Failed: make([]bool, 0, n), LengthM: make([]float64, 0, n),
	}
	for row, idx := range p.test.PipeIdx {
		r.PipeIDs = append(r.PipeIDs, p.ids[idx])
		r.Rows = append(r.Rows, idx)
		r.Scores = append(r.Scores, scores[row])
		r.Failed = append(r.Failed, p.test.Label[row])
		r.LengthM = append(r.LengthM, p.test.LengthM[row])
	}
	return r
}

// SelectModel cross-validates the named models on the training window
// (stratified k-fold over pipe-year instances) and returns the winner's
// name with the per-model mean validation AUCs, best first. It never
// touches the held-out test year.
func (p *Pipeline) SelectModel(names []string, k int) (best string, meanAUC map[string]float64, err error) {
	if len(names) == 0 {
		names = Models()
	}
	cands := make([]tune.Candidate, 0, len(names))
	for _, name := range names {
		name := name
		if _, err := p.reg.New(name); err != nil {
			return "", nil, err
		}
		cands = append(cands, tune.Candidate{
			Label: name,
			Make: func() core.Model {
				m, _ := p.reg.New(name)
				return m
			},
		})
	}
	train, err := p.b.FactoredTrainSet(p.split)
	if err != nil {
		return "", nil, fmt.Errorf("pipefail: %w", err)
	}
	results, err := tune.SelectByCV(train, cands, k, p.seed)
	if err != nil {
		return "", nil, fmt.Errorf("pipefail: %w", err)
	}
	meanAUC = make(map[string]float64, len(results))
	for _, r := range results {
		meanAUC[r.Label] = r.MeanAUC
	}
	return results[0].Label, meanAUC, nil
}

// Ranking is a scored test-year snapshot: one entry per pipe that existed
// at the test year, aligned across all fields.
type Ranking struct {
	Model    string
	TestYear int
	PipeIDs  []string
	Rows     []int // registry rows (Data.RowOf of each ID)
	Scores   []float64
	// Failed is the test-year ground truth (available because rankings are
	// built on held-out historical data; a production deployment would
	// not have it).
	Failed  []bool
	LengthM []float64
}

// Len returns the number of ranked pipes.
func (r *Ranking) Len() int { return len(r.PipeIDs) }

// AUC returns the full ROC AUC of the ranking against the test year.
func (r *Ranking) AUC() float64 { return eval.AUC(r.Scores, r.Failed) }

// DetectionAt returns the fraction of test-year failures caught when
// inspecting the top frac of pipes.
func (r *Ranking) DetectionAt(frac float64) float64 {
	return eval.DetectionAt(r.Scores, r.Failed, frac)
}

// DetectionAtLength is DetectionAt with the budget measured in network
// length instead of pipe count.
func (r *Ranking) DetectionAtLength(frac float64) float64 {
	return eval.DetectionAtLength(r.Scores, r.Failed, r.LengthM, frac)
}

// Curve returns the detection curve with the given number of points.
func (r *Ranking) Curve(points int) []CurvePoint {
	return eval.DetectionCurve(r.Scores, r.Failed, points)
}

// TopIDs returns the k highest-risk pipe IDs in rank order.
func (r *Ranking) TopIDs(k int) []string {
	idx := eval.TopK(r.Scores, k)
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = r.PipeIDs[j]
	}
	return out
}
