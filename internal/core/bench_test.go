package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/feature"
	"repro/internal/parallel"
	"repro/internal/synthetic"
)

// BenchmarkFitnessEval measures one ES fitness evaluation — the unit the
// training loop performs µ+λ times per generation (3,840 times per Fit at
// the defaults). Shape mirrors a realistic pipe-year set: 20k rows, 5%
// positives, 4x negative sub-sampling, 32 features.
func BenchmarkFitnessEval(b *testing.B) {
	benchFitnessEval(b, gaussianSet(1, 20000, 0.05, 1.5, 32))
}

// BenchmarkFitnessEvalFullScale is BenchmarkFitnessEval at the batch
// shape of a full-scale region-A fit: 17,305 rows (every positive plus
// 4x as many sampled negatives, here the whole negative side), 20 %
// positives, 35 features. Its ~3,500 positives put the AUC kernel on its
// radix-sort path, which the smaller benchmark's ~1,000 do not reach.
func BenchmarkFitnessEvalFullScale(b *testing.B) {
	benchFitnessEval(b, gaussianSet(5, 17305, 0.2, 1.5, 35))
}

func benchFitnessEval(b *testing.B, set *feature.Set) {
	pos, neg := splitByLabel(set)
	batchNeg := 4 * len(pos)
	if batchNeg > len(neg) {
		batchNeg = len(neg)
	}
	batch := newFitnessBatch(set, pos, neg, batchNeg)
	w := make([]float64, set.Dim())
	for j := range w {
		w[j] = float64(j%5) - 2
	}
	scores := make([]float64, len(batch.rows))
	var k eval.AUCKernel
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a := batch.aucInto(w, scores, &k); a < 0 || a > 1 {
			b.Fatalf("AUC %v", a)
		}
	}
}

// BenchmarkDirectAUCFit measures one whole DirectAUC-ES fit as a
// pipeline runs it: build the training set of full-scale region A (seed
// 1, paper split) from the fitted builder, then fit with the default
// configuration (120 generations, RankSVM warm start, exact final pass)
// on every CPU.
func BenchmarkDirectAUCFit(b *testing.B) {
	cfg, err := synthetic.Preset("A", 1)
	if err != nil {
		b.Fatal(err)
	}
	cols, _, err := synthetic.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	split, err := dataset.PaperSplit(cols)
	if err != nil {
		b.Fatal(err)
	}
	fb, err := feature.NewBuilder(cols, feature.Options{Standardize: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := fb.Fit(split); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		train, err := fb.FactoredTrainSet(split)
		if err != nil {
			b.Fatal(err)
		}
		if err := NewDirectAUC(DefaultDirectAUCConfig(1)).Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreAllFlat measures the full-set scoring pass (exact-final
// re-ranking and serve-side scoring) over a dense flat-backed set.
func BenchmarkScoreAllFlat(b *testing.B) {
	set := gaussianSet(2, 20000, 0.05, 1.5, 32)
	w := make([]float64, set.Dim())
	for j := range w {
		w[j] = float64(j%5) - 2
	}
	pool := parallel.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores := scoreAllPar(set, w, pool)
		if len(scores) != set.Len() {
			b.Fatal("bad scores")
		}
	}
}

// BenchmarkRankBoostFit measures one serial RankBoost fit at the
// train-offline shape: 8k pipe-years, 35 features, 2 % positives, the
// default 100 rounds and 16 cuts per feature.
func BenchmarkRankBoostFit(b *testing.B) {
	set := gaussianSet(3, 8000, 0.02, 1, 35)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewRankBoost(RankBoostConfig{Workers: 1})
		if err := m.Fit(set); err != nil {
			b.Fatal(err)
		}
		if m.Rounds() != 100 {
			b.Fatalf("%d rounds, want 100", m.Rounds())
		}
	}
}
