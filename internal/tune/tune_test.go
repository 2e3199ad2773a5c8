package tune

import (
	"testing"

	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/stats"
)

// noisySet builds a two-class dataset where only feature 0 is informative,
// so heavy regularization (which shrinks the informative weight less than
// it suppresses noise) separates candidates measurably.
func noisySet(seed int64, n, dim int) *feature.Set {
	rng := stats.NewRNG(seed)
	names := make([]string, dim)
	for j := range names {
		names[j] = "f"
	}
	s := feature.NewDense(names, n, dim)
	for i := 0; i < n; i++ {
		pos := rng.Bernoulli(0.25)
		row := s.Row(i, nil)
		for j := range row {
			row[j] = rng.Norm()
		}
		if pos {
			row[0] += 1.5
		}
		s.Label[i] = pos
		s.Age[i] = 10
		s.LengthM[i] = 100
		s.PipeIdx[i] = i
	}
	return s
}

func svmCandidates() []Candidate {
	return []Candidate{
		{Label: "epochs=1", Make: func() core.Model {
			return core.NewRankSVM(core.RankSVMConfig{Seed: 1, Epochs: 1, PairsPerEpoch: 50})
		}},
		{Label: "epochs=20", Make: func() core.Model {
			return core.NewRankSVM(core.RankSVMConfig{Seed: 1, Epochs: 20})
		}},
	}
}

func TestSelectByCVRanksCandidates(t *testing.T) {
	train := noisySet(1, 1200, 8)
	results, err := SelectByCV(train, svmCandidates(), 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if len(r.FoldAUCs) != 4 {
			t.Fatalf("%s folds = %d", r.Label, len(r.FoldAUCs))
		}
		if r.MeanAUC < 0.5 || r.MeanAUC > 1 {
			t.Fatalf("%s mean AUC %v", r.Label, r.MeanAUC)
		}
	}
	// Sorted best-first.
	if results[0].MeanAUC < results[1].MeanAUC {
		t.Fatal("results not sorted")
	}
	// The well-trained candidate should win against the starved one.
	if results[0].Label != "epochs=20" {
		t.Fatalf("winner %s, want epochs=20 (AUCs %v vs %v)",
			results[0].Label, results[0].MeanAUC, results[1].MeanAUC)
	}
}

func TestSelectByCVDeterminism(t *testing.T) {
	train := noisySet(3, 600, 5)
	r1, err := SelectByCV(train, svmCandidates(), 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SelectByCV(train, svmCandidates(), 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i].MeanAUC != r2[i].MeanAUC {
			t.Fatal("CV not deterministic")
		}
	}
}

func TestSelectByCVErrors(t *testing.T) {
	if _, err := SelectByCV(nil, svmCandidates(), 3, 1); err == nil {
		t.Fatal("nil train must error")
	}
	train := noisySet(4, 100, 3)
	if _, err := SelectByCV(train, nil, 3, 1); err == nil {
		t.Fatal("no candidates must error")
	}
	if _, err := SelectByCV(train, svmCandidates(), 1, 1); err == nil {
		t.Fatal("k=1 must error")
	}
	// A candidate whose fit fails propagates the error.
	bad := []Candidate{{Label: "bad", Make: func() core.Model {
		return core.NewRankBoost(core.RankBoostConfig{})
	}}}
	empty := &feature.Set{}
	if _, err := SelectByCV(empty, bad, 2, 1); err == nil {
		t.Fatal("empty set must error")
	}
}
