package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/eval"
	"repro/internal/feature"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// ES progress metrics, accumulated once per Fit (never inside the
// per-offspring loops) so instrumentation stays off the hot path.
var (
	esGenerations  = obs.Default().Counter("core.es.generations")
	esFitnessEvals = obs.Default().Counter("core.es.fitness_evals")
)

// DirectAUCConfig tunes the evolution strategy behind DirectAUC.
// Zero values take the documented defaults.
type DirectAUCConfig struct {
	// Seed drives all randomness of the optimizer.
	Seed int64
	// Mu is the parent population size (default 8).
	Mu int
	// Lambda is the offspring count per generation (default 24).
	Lambda int
	// Generations is the number of ES generations (default 120).
	Generations int
	// InitSigma is the initial mutation step size (default 0.5).
	InitSigma float64
	// BatchNegatives caps the number of negative instances in each
	// generation's fitness batch; all positives are always included
	// (default: 4x the positive count). Sub-sampling keeps each fitness
	// evaluation cheap on pipe-year sets with hundreds of thousands of
	// rows while leaving the objective unbiased in expectation.
	BatchNegatives int
	// ExactFinal, when true, re-ranks the final parents by exact AUC on
	// the full training set before picking the winner (default true via
	// DefaultDirectAUCConfig; the ablation bench switches it off).
	ExactFinal bool
	// DisableWarmStart skips seeding the population with the pairwise
	// hinge (RankSVM) solution. The warm start gives the ES a strong
	// convex starting point that it then refines on the exact, not the
	// surrogate, objective; the ablation bench switches it off.
	DisableWarmStart bool
	// Workers bounds the fitness-evaluation worker pool (0 = GOMAXPROCS,
	// 1 = fully serial). Results are bit-identical for every value: all
	// RNG draws (batch resampling, parent selection, mutation) stay on
	// the caller's goroutine in serial order, and only the pure
	// scoring/AUC evaluations fan out, each offspring writing its own
	// fitness slot.
	Workers int
}

// DefaultDirectAUCConfig returns the defaults used by the experiments.
func DefaultDirectAUCConfig(seed int64) DirectAUCConfig {
	return DirectAUCConfig{
		Seed:        seed,
		Mu:          8,
		Lambda:      24,
		Generations: 120,
		InitSigma:   0.5,
		ExactFinal:  true,
	}
}

func (c *DirectAUCConfig) fillDefaults() {
	if c.Mu <= 0 {
		c.Mu = 8
	}
	if c.Lambda <= 0 {
		c.Lambda = 24
	}
	if c.Generations <= 0 {
		c.Generations = 120
	}
	if c.InitSigma <= 0 {
		c.InitSigma = 0.5
	}
}

// DirectAUC is the paper's method: a linear scoring function H(x) = w·x
// whose weights are found by a self-adaptive (µ+λ) evolution strategy that
// maximizes the empirical AUC directly. Because the objective is a step
// function of w, gradient methods need surrogates; the ES does not.
type DirectAUC struct {
	cfg DirectAUCConfig
	// W is the learned weight vector (exported after Fit for inspection
	// and persistence).
	W []float64
	// TrainAUC is the exact training AUC of the selected weights.
	TrainAUC float64
}

// NewDirectAUC returns an unfitted DirectAUC learner.
func NewDirectAUC(cfg DirectAUCConfig) *DirectAUC {
	cfg.fillDefaults()
	return &DirectAUC{cfg: cfg}
}

// Name implements Model.
func (d *DirectAUC) Name() string { return "DirectAUC-ES" }

type esIndividual struct {
	w     []float64
	sigma float64
	fit   float64
}

// Fit implements Model. The optimization is deterministic given the
// configuration seed.
func (d *DirectAUC) Fit(train *feature.Set) error {
	return d.FitContext(context.Background(), train)
}

// FitContext implements ContextFitter: Fit with a cancellation check at
// the top of every ES generation (and before the final exact-AUC pass).
// A run cancelled at generation k consumed exactly the same RNG stream as
// an uncancelled run up to k, so re-running uncancelled reproduces the
// never-cancelled weights bit for bit.
func (d *DirectAUC) FitContext(ctx context.Context, train *feature.Set) error {
	if err := validateFitInputs(train); err != nil {
		return fmt.Errorf("%s: %w", d.Name(), err)
	}
	rng := stats.NewRNG(d.cfg.Seed)
	dim := train.Dim()
	pos, neg := splitByLabel(train)

	batchNeg := d.cfg.BatchNegatives
	if batchNeg <= 0 {
		batchNeg = 4 * len(pos)
	}
	if batchNeg > len(neg) {
		batchNeg = len(neg)
	}

	// Seed population: small random weights plus two informed individuals —
	// the positive-minus-negative class-mean direction, and (unless
	// disabled) the pairwise hinge surrogate solution, which the ES then
	// refines against the exact AUC objective instead of the surrogate.
	meanDiff := classMeanDiff(train, pos, neg)
	var warm []float64
	if !d.cfg.DisableWarmStart {
		svm := NewRankSVM(RankSVMConfig{Seed: d.cfg.Seed + 7919, Epochs: 10})
		if err := svm.FitContext(ctx, train); err == nil {
			warm = svm.W
		} else if ctx.Err() != nil {
			return fmt.Errorf("%s: cancelled during warm start: %w", d.Name(), ctx.Err())
		}
	}
	parents := make([]esIndividual, d.cfg.Mu)
	for i := range parents {
		w := make([]float64, dim)
		for j := range w {
			w[j] = rng.Normal(0, 0.1)
		}
		switch {
		case i == 0 && warm != nil:
			copy(w, warm)
		case i == 1:
			copy(w, meanDiff)
		}
		parents[i] = esIndividual{w: w, sigma: d.cfg.InitSigma}
	}

	// tauSelf is the standard self-adaptation learning rate 1/sqrt(2n).
	tauSelf := 1 / math.Sqrt(2*float64(dim))

	// Fitness evaluations are pure in the weights given the generation's
	// batch, so they fan out across the pool; each worker owns a scratch
	// score buffer so concurrent evaluations never share state. Parent
	// fitness is first assigned inside the generation loop (generation 0
	// evaluates every parent on its first batch).
	pool := parallel.New(d.cfg.Workers)
	batch := newFitnessBatch(train, pos, neg, batchNeg)
	type fitScratch struct {
		scores []float64
		auc    eval.AUCKernel
	}
	scratch := make([]fitScratch, pool.Workers())
	for i := range scratch {
		scratch[i].scores = make([]float64, len(batch.rows))
	}

	offspring := make([]esIndividual, 0, d.cfg.Lambda)
	// merged is the (µ+λ) selection pool, reused every generation.
	merged := make([]esIndividual, 0, d.cfg.Mu+d.cfg.Lambda)
	cancelledAt := func(gen int, err error) error {
		esGenerations.Add(int64(gen))
		esFitnessEvals.Add(int64(gen * (d.cfg.Mu + d.cfg.Lambda)))
		return fmt.Errorf("%s: cancelled at generation %d: %w", d.Name(), gen, err)
	}
	for gen := 0; gen < d.cfg.Generations; gen++ {
		if err := ctx.Err(); err != nil {
			return cancelledAt(gen, err)
		}
		// Fresh negative sub-sample each generation: all candidates within
		// a generation share the batch so their fitnesses are comparable,
		// while resampling across generations prevents overfitting the
		// subsample.
		batch.resample(rng)

		// Re-evaluate parents on the new batch. RunCtx: the fitness fan-out
		// is the generation's dominant cost, so cancellation also aborts
		// between chunks inside a generation, not only at its top.
		if err := pool.RunCtx(ctx, len(parents), func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				parents[i].fit = batch.aucInto(parents[i].w, scratch[w].scores, &scratch[w].auc)
			}
		}); err != nil {
			return cancelledAt(gen, err)
		}

		// Mutation stays on this goroutine: every RNG draw happens in the
		// same order as a fully serial run, for any worker count.
		offspring = offspring[:0]
		for k := 0; k < d.cfg.Lambda; k++ {
			p := parents[rng.Intn(len(parents))]
			child := esIndividual{
				w:     linalg.Clone(p.w),
				sigma: p.sigma * math.Exp(tauSelf*rng.Norm()),
			}
			if child.sigma < 1e-6 {
				child.sigma = 1e-6
			}
			for j := range child.w {
				child.w[j] += child.sigma * rng.Norm()
			}
			offspring = append(offspring, child)
		}
		// Only scoring fans out; each offspring owns its fitness slot.
		if err := pool.RunCtx(ctx, len(offspring), func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				offspring[i].fit = batch.aucInto(offspring[i].w, scratch[w].scores, &scratch[w].auc)
			}
		}); err != nil {
			return cancelledAt(gen, err)
		}

		// (µ+λ) selection: sort the merged pool by fitness (descending)
		// and keep the best µ as the next parents.
		merged = merged[:0]
		merged = append(merged, parents...)
		merged = append(merged, offspring...)
		sortByFitnessDesc(merged)
		copy(parents, merged[:d.cfg.Mu])
	}

	esGenerations.Add(int64(d.cfg.Generations))
	esFitnessEvals.Add(int64(d.cfg.Generations * (d.cfg.Mu + d.cfg.Lambda)))

	// Pick the winner, optionally by exact full-set AUC.
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%s: cancelled before final selection: %w", d.Name(), err)
	}
	// The full-set passes reuse one score buffer and one pool-fanned
	// kernel: scratch persists across the µ re-rankings, and the counting
	// pass itself fans out over the same pool as scoring (per-worker count
	// slabs keep the result bit-identical to a serial pass).
	finalKernel := eval.AUCKernel{Pool: pool}
	scores := make([]float64, train.Len())
	best := parents[0]
	if d.cfg.ExactFinal {
		bestAUC := math.Inf(-1)
		for _, p := range parents {
			scoreInto(scores, train, p.w, pool)
			a := finalKernel.Compute(scores, train.Label)
			if a > bestAUC {
				bestAUC = a
				best = p
				best.fit = a
			}
		}
		d.TrainAUC = bestAUC
	} else {
		scoreInto(scores, train, best.w, pool)
		d.TrainAUC = finalKernel.Compute(scores, train.Label)
	}
	d.W = linalg.Clone(best.w)
	return nil
}

// Scores implements Model.
func (d *DirectAUC) Scores(test *feature.Set) ([]float64, error) {
	if d.W == nil {
		return nil, fmt.Errorf("%s: Scores before Fit", d.Name())
	}
	if test.Dim() != len(d.W) {
		return nil, fmt.Errorf("%s: test dim %d != model dim %d", d.Name(), test.Dim(), len(d.W))
	}
	return scoreAllPar(test, d.W, parallel.New(d.cfg.Workers)), nil
}

func scoreAll(s *feature.Set, w []float64) []float64 {
	return scoreAllPar(s, w, parallel.Pool{})
}

// scoreAllPar is scoreAll with the row loop fanned out across the pool.
func scoreAllPar(s *feature.Set, w []float64, pool parallel.Pool) []float64 {
	out := make([]float64, s.Len())
	scoreInto(out, s, w, pool)
	return out
}

// scoreInto writes the score of every row of s into out, fanned out
// across the pool; each row writes only its own slot, so any worker
// count gives the same result. Dense sets take the contiguous MatVec
// path, factored sets per-row dots: the same bits, since MatVec is
// defined as Dot per row.
func scoreInto(out []float64, s *feature.Set, w []float64, pool parallel.Pool) {
	flat, stride := s.Flat()
	var bufs []float64 // Row scratch, one row per worker
	if flat == nil {
		bufs = make([]float64, pool.Workers()*len(w))
	}
	pool.Run(s.Len(), func(worker, lo, hi int) {
		if flat != nil {
			linalg.MatVec(out[lo:hi], flat[lo*stride:hi*stride], stride, w)
			return
		}
		buf := bufs[worker*len(w) : (worker+1)*len(w)]
		for i := lo; i < hi; i++ {
			out[i] = linalg.Dot(s.Row(i, buf), w)
		}
	})
}

func classMeanDiff(s *feature.Set, pos, neg []int) []float64 {
	d := s.Dim()
	mp, mn, buf := make([]float64, d), make([]float64, d), make([]float64, d)
	for _, i := range pos {
		linalg.Axpy(1, s.Row(i, buf), mp)
	}
	for _, i := range neg {
		linalg.Axpy(1, s.Row(i, buf), mn)
	}
	linalg.Scale(1/float64(len(pos)), mp)
	linalg.Scale(1/float64(len(neg)), mn)
	return linalg.Sub(mp, mn)
}

// sortByFitnessDesc sorts individuals by fitness, best first. Insertion
// sort is stable and the pools are tiny (µ+λ).
func sortByFitnessDesc(all []esIndividual) {
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && all[j].fit > all[j-1].fit; j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
}

// fitnessBatch evaluates sampled-pair AUC: all positives against a
// refreshed subsample of negatives. The batch rows are gathered into a
// dense contiguous sub-matrix (sub) once per resample, from a dense or a
// factored set alike, so each of the µ+λ fitness evaluations per
// generation is a single sequential MatVec over the gathered block.
type fitnessBatch struct {
	set      *feature.Set
	pos, neg []int
	batchNeg int
	rows     []int
	labels   []bool
	sub      []float64 // dense row-major gather of rows, len(rows) x stride
	stride   int
	sampler  stats.Sampler // resample's index scratch, kept across generations
}

func newFitnessBatch(s *feature.Set, pos, neg []int, batchNeg int) *fitnessBatch {
	b := &fitnessBatch{set: s, pos: pos, neg: neg, batchNeg: batchNeg, stride: s.Dim()}
	b.rows = make([]int, 0, len(pos)+batchNeg)
	b.labels = make([]bool, 0, len(pos)+batchNeg)
	b.rows = append(b.rows, pos...)
	for range pos {
		b.labels = append(b.labels, true)
	}
	// Until the first resample, use the leading negatives.
	for i := 0; i < batchNeg; i++ {
		b.rows = append(b.rows, neg[i])
		b.labels = append(b.labels, false)
	}
	b.sub = make([]float64, len(b.rows)*b.stride)
	b.gather(0, len(b.rows))
	return b
}

// gather copies rows [lo, hi) of the batch into the dense sub-matrix.
// Positives occupy the leading block and never change, so resample only
// re-gathers the negative tail.
func (b *fitnessBatch) gather(lo, hi int) {
	b.set.Gather(b.sub[lo*b.stride:hi*b.stride], b.rows[lo:hi])
}

func (b *fitnessBatch) resample(rng *stats.RNG) {
	for i, s := range b.sampler.Sample(rng, len(b.neg), b.batchNeg) {
		b.rows[len(b.pos)+i] = b.neg[s]
	}
	b.gather(len(b.pos), len(b.rows))
}

// aucInto returns the batch AUC of weights w, using caller-owned score
// and kernel scratch (one pair per worker), so concurrent evaluations
// never share state.
func (b *fitnessBatch) aucInto(w, scores []float64, k *eval.AUCKernel) float64 {
	linalg.MatVec(scores, b.sub, b.stride, w)
	return k.Compute(scores, b.labels)
}
