package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/eval"
	"repro/internal/feature"
	"repro/internal/parallel"
	"repro/internal/stats"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// gaussianSet builds a two-class Gaussian set: positives centred at +mu
// along a signal direction in the first two dims, negatives at the origin,
// with noise dims appended. sep controls difficulty. The set is dense
// (flat-backed), like everything the feature builder produces, so tests
// exercise the same memory-layout paths as production sets.
func gaussianSet(seed int64, n int, posFrac, sep float64, dim int) *feature.Set {
	rng := stats.NewRNG(seed)
	names := make([]string, dim)
	for j := range names {
		names[j] = "f"
	}
	s := feature.NewDense(names, n, dim)
	for i := 0; i < n; i++ {
		pos := rng.Bernoulli(posFrac)
		row := s.Row(i, nil)
		for j := range row {
			row[j] = rng.Norm()
		}
		if pos {
			row[0] += sep
			if dim > 1 {
				row[1] += sep / 2
			}
		}
		s.Label[i] = pos
		s.Age[i] = 10
		s.LengthM[i] = 100
		s.PipeIdx[i] = i
	}
	return s
}

// regionSets returns the standardized paper-split training set of region
// A at scale 0.05 (seed 1) in both forms, dense and factored.
func regionSets(t testing.TB) (dense, factored *feature.Set) {
	t.Helper()
	b, split := regionABuilder(t, 0.05)
	dense, err := b.TrainSet(split)
	if err != nil {
		t.Fatal(err)
	}
	if factored, err = b.FactoredTrainSet(split); err != nil {
		t.Fatal(err)
	}
	return dense, factored
}

func TestExactAUCKnownValues(t *testing.T) {
	// Perfect separation.
	if got := eval.AUC([]float64{1, 2, 3, 4}, []bool{false, false, true, true}); got != 1 {
		t.Fatalf("perfect AUC = %v", got)
	}
	// Perfectly wrong.
	if got := eval.AUC([]float64{4, 3, 2, 1}, []bool{false, false, true, true}); got != 0 {
		t.Fatalf("inverted AUC = %v", got)
	}
	// All ties → 0.5.
	if got := eval.AUC([]float64{7, 7, 7, 7}, []bool{true, false, true, false}); got != 0.5 {
		t.Fatalf("tied AUC = %v", got)
	}
	// Hand-computed: scores 1,2,3 labels F,T,F → pairs (2>1)=1, (2<3)=0 → 0.5.
	if got := eval.AUC([]float64{1, 2, 3}, []bool{false, true, false}); got != 0.5 {
		t.Fatalf("AUC = %v", got)
	}
	// Single class degenerates to 0.5.
	if got := eval.AUC([]float64{1, 2}, []bool{true, true}); got != 0.5 {
		t.Fatalf("single class AUC = %v", got)
	}
}

// Property: AUC is invariant under strictly monotone transforms of scores.
func TestExactAUCMonotoneInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		n := 50
		scores := make([]float64, n)
		labels := make([]bool, n)
		for i := range scores {
			scores[i] = rng.Normal(0, 2)
			labels[i] = rng.Bernoulli(0.3)
		}
		a1 := eval.AUC(scores, labels)
		warped := make([]float64, n)
		for i, s := range scores {
			warped[i] = math.Exp(s/3) + 100
		}
		a2 := eval.AUC(warped, labels)
		return almostEqual(a1, a2, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: AUC(scores) + AUC(-scores) == 1 when there are no ties.
func TestExactAUCComplementProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		n := 40
		scores := make([]float64, n)
		labels := make([]bool, n)
		hasPos, hasNeg := false, false
		for i := range scores {
			scores[i] = rng.Float64() // continuous → no ties w.h.p.
			labels[i] = rng.Bernoulli(0.4)
			if labels[i] {
				hasPos = true
			} else {
				hasNeg = true
			}
		}
		if !hasPos || !hasNeg {
			return true
		}
		neg := make([]float64, n)
		for i, s := range scores {
			neg[i] = -s
		}
		return almostEqual(eval.AUC(scores, labels)+eval.AUC(neg, labels), 1, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Register(func() Model { return NewDirectAUC(DefaultDirectAUCConfig(1)) })
	r.Register(func() Model { return NewRankSVM(RankSVMConfig{Seed: 1}) })
	if got := r.Names(); len(got) != 2 || got[0] != "DirectAUC-ES" || got[1] != "RankSVM" {
		t.Fatalf("names = %v", got)
	}
	m, err := r.New("RankSVM")
	if err != nil || m.Name() != "RankSVM" {
		t.Fatalf("New: %v %v", m, err)
	}
	if _, err := r.New("nope"); err == nil {
		t.Fatal("unknown name must error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	r.Register(func() Model { return NewRankSVM(RankSVMConfig{}) })
}

func TestValidateFitInputs(t *testing.T) {
	if err := validateFitInputs(nil); err == nil {
		t.Fatal("nil set must error")
	}
	s := gaussianSet(1, 50, 0.3, 2, 3)
	for i := range s.Label {
		s.Label[i] = true
	}
	if err := validateFitInputs(s); err == nil {
		t.Fatal("all-positive set must error")
	}
	for i := range s.Label {
		s.Label[i] = false
	}
	if err := validateFitInputs(s); err == nil {
		t.Fatal("all-negative set must error")
	}
}

func fitAndScore(t *testing.T, m Model, train, test *feature.Set) []float64 {
	t.Helper()
	if err := m.Fit(train); err != nil {
		t.Fatalf("%s fit: %v", m.Name(), err)
	}
	scores, err := m.Scores(test)
	if err != nil {
		t.Fatalf("%s score: %v", m.Name(), err)
	}
	if len(scores) != test.Len() {
		t.Fatalf("%s returned %d scores for %d rows", m.Name(), len(scores), test.Len())
	}
	return scores
}

func TestDirectAUCLearnsSeparableData(t *testing.T) {
	train := gaussianSet(1, 800, 0.15, 2.5, 6)
	test := gaussianSet(2, 400, 0.15, 2.5, 6)
	m := NewDirectAUC(DirectAUCConfig{Seed: 3, Generations: 60})
	scores := fitAndScore(t, m, train, test)
	auc := eval.AUC(scores, test.Label)
	if auc < 0.9 {
		t.Fatalf("DirectAUC test AUC = %v, want >= 0.9", auc)
	}
	if m.TrainAUC < 0.9 {
		t.Fatalf("train AUC = %v", m.TrainAUC)
	}
}

func TestDirectAUCDeterminism(t *testing.T) {
	train := gaussianSet(5, 300, 0.2, 2, 4)
	m1 := NewDirectAUC(DirectAUCConfig{Seed: 9, Generations: 20})
	m2 := NewDirectAUC(DirectAUCConfig{Seed: 9, Generations: 20})
	if err := m1.Fit(train); err != nil {
		t.Fatal(err)
	}
	if err := m2.Fit(train); err != nil {
		t.Fatal(err)
	}
	for i := range m1.W {
		if m1.W[i] != m2.W[i] {
			t.Fatal("same seed must give identical weights")
		}
	}
}

// TestFitnessBatchResampleZeroAlloc is the allocation-regression gate for
// the ES's per-generation negative resample: once warm it allocates
// nothing, and it draws the same negatives as a one-shot
// SampleWithoutReplacement from a twin generator.
func TestFitnessBatchResampleZeroAlloc(t *testing.T) {
	set := gaussianSet(4, 5000, 0.05, 1.5, 8)
	pos, neg := splitByLabel(set)
	batch := newFitnessBatch(set, pos, neg, 4*len(pos))
	rng, twin := stats.NewRNG(11), stats.NewRNG(11)
	for gen := 0; gen < 3; gen++ {
		batch.resample(rng)
		for i, j := range twin.SampleWithoutReplacement(len(neg), batch.batchNeg) {
			if batch.rows[len(pos)+i] != neg[j] {
				t.Fatalf("generation %d: batch row %d is %d, want %d", gen, i, batch.rows[len(pos)+i], neg[j])
			}
		}
	}
	if allocs := testing.AllocsPerRun(50, func() { batch.resample(rng) }); allocs != 0 {
		t.Fatalf("fitnessBatch.resample allocates %v per generation, want 0", allocs)
	}
}

// TestFlatAndViewSetsScoreIdentically pins the memory-layout contract:
// the flat MatVec fast path over a dense set and the per-row path over
// the rows a factored set rebuilds must produce bit-identical scores
// and, through them, bit-identical fitted models.
func TestFlatAndViewSetsScoreIdentically(t *testing.T) {
	dense, view := regionSets(t)
	if flat, _ := view.Flat(); flat != nil {
		t.Fatal("a factored set must not have a flat backing")
	}
	w := make([]float64, dense.Dim())
	for j := range w {
		w[j] = float64(j%7)/2 - 1.25
	}
	pool := parallel.New(2)
	sd := scoreAllPar(dense, w, pool)
	sv := scoreAllPar(view, w, pool)
	for i := range sd {
		if sd[i] != sv[i] {
			t.Fatalf("row %d: flat path %v != view path %v", i, sd[i], sv[i])
		}
	}
	md := NewDirectAUC(DirectAUCConfig{Seed: 9, Generations: 5})
	mv := NewDirectAUC(DirectAUCConfig{Seed: 9, Generations: 5})
	if err := md.Fit(dense); err != nil {
		t.Fatal(err)
	}
	if err := mv.Fit(view); err != nil {
		t.Fatal(err)
	}
	for i := range md.W {
		if md.W[i] != mv.W[i] {
			t.Fatal("flat and view training must give identical weights")
		}
	}
	if md.TrainAUC != mv.TrainAUC {
		t.Fatalf("train AUC %v != %v", md.TrainAUC, mv.TrainAUC)
	}
}

func TestDirectAUCErrors(t *testing.T) {
	m := NewDirectAUC(DirectAUCConfig{Seed: 1})
	if _, err := m.Scores(gaussianSet(1, 10, 0.5, 1, 3)); err == nil {
		t.Fatal("Scores before Fit must error")
	}
	train := gaussianSet(1, 100, 0.3, 1, 3)
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Scores(gaussianSet(1, 10, 0.5, 1, 5)); err == nil {
		t.Fatal("dim mismatch must error")
	}
}

func TestRankSVMLearnsSeparableData(t *testing.T) {
	train := gaussianSet(11, 800, 0.15, 2.5, 6)
	test := gaussianSet(12, 400, 0.15, 2.5, 6)
	m := NewRankSVM(RankSVMConfig{Seed: 13})
	scores := fitAndScore(t, m, train, test)
	if auc := eval.AUC(scores, test.Label); auc < 0.9 {
		t.Fatalf("RankSVM test AUC = %v", auc)
	}
}

func TestRankSVMErrorsAndDeterminism(t *testing.T) {
	m := NewRankSVM(RankSVMConfig{Seed: 1})
	if _, err := m.Scores(gaussianSet(1, 10, 0.5, 1, 3)); err == nil {
		t.Fatal("Scores before Fit must error")
	}
	train := gaussianSet(21, 300, 0.2, 2, 4)
	m1 := NewRankSVM(RankSVMConfig{Seed: 2, Epochs: 5})
	m2 := NewRankSVM(RankSVMConfig{Seed: 2, Epochs: 5})
	if err := m1.Fit(train); err != nil {
		t.Fatal(err)
	}
	if err := m2.Fit(train); err != nil {
		t.Fatal(err)
	}
	for i := range m1.W {
		if m1.W[i] != m2.W[i] {
			t.Fatal("RankSVM not deterministic")
		}
	}
	if err := m1.Fit(&feature.Set{}); err == nil {
		t.Fatal("empty train must error")
	}
	if _, err := m1.Scores(gaussianSet(1, 10, 0.5, 1, 9)); err == nil {
		t.Fatal("dim mismatch must error")
	}
}

func TestRankBoostLearnsSeparableData(t *testing.T) {
	train := gaussianSet(31, 800, 0.15, 2.5, 6)
	test := gaussianSet(32, 400, 0.15, 2.5, 6)
	m := NewRankBoost(RankBoostConfig{Rounds: 50})
	scores := fitAndScore(t, m, train, test)
	if auc := eval.AUC(scores, test.Label); auc < 0.85 {
		t.Fatalf("RankBoost test AUC = %v", auc)
	}
	if m.Rounds() == 0 {
		t.Fatal("no stumps fitted")
	}
}

func TestRankBoostHandlesNonMonotoneDirection(t *testing.T) {
	// Positives have LOWER feature values: stumps must invert.
	rng := stats.NewRNG(41)
	s := feature.NewDense([]string{"f0"}, 400, 1)
	for i := range s.Label {
		pos := rng.Bernoulli(0.3)
		v := rng.Norm()
		if pos {
			v -= 3
		}
		s.Row(i, nil)[0] = v
		s.Label[i] = pos
	}
	m := NewRankBoost(RankBoostConfig{Rounds: 20})
	if err := m.Fit(s); err != nil {
		t.Fatal(err)
	}
	scores, err := m.Scores(s)
	if err != nil {
		t.Fatal(err)
	}
	if auc := eval.AUC(scores, s.Label); auc < 0.9 {
		t.Fatalf("inverted-direction AUC = %v", auc)
	}
}

func TestRankBoostErrors(t *testing.T) {
	m := NewRankBoost(RankBoostConfig{})
	if _, err := m.Scores(gaussianSet(1, 10, 0.5, 1, 3)); err == nil {
		t.Fatal("Scores before Fit must error")
	}
	if err := m.Fit(&feature.Set{}); err == nil {
		t.Fatal("empty train must error")
	}
	wide := NewRankBoost(RankBoostConfig{Rounds: 5, Thresholds: maxCuts + 1})
	if err := wide.Fit(gaussianSet(56, 200, 0.2, 1, 3)); err == nil {
		t.Fatalf("Thresholds %d must error: a cut index must fit a byte", maxCuts+1)
	}
}
