package core

import (
	"testing"

	"repro/internal/eval"
	"repro/internal/feature"
)

func TestEnsembleFusesRankers(t *testing.T) {
	train := gaussianSet(91, 800, 0.15, 2.5, 6)
	test := gaussianSet(92, 400, 0.15, 2.5, 6)
	e := NewEnsemble(nil,
		NewRankSVM(RankSVMConfig{Seed: 1}),
		NewRankBoost(RankBoostConfig{Rounds: 30}),
		NewDirectAUC(DirectAUCConfig{Seed: 2, Generations: 20}),
	)
	if e.Name() != "Ensemble" {
		t.Fatal("name")
	}
	scores := fitAndScore(t, e, train, test)
	eAUC := eval.AUC(scores, test.Label)
	if eAUC < 0.9 {
		t.Fatalf("ensemble AUC = %v", eAUC)
	}
	// Fused scores are normalized ranks in [0, 1).
	for _, s := range scores {
		if s < 0 || s >= 1 {
			t.Fatalf("fused score %v out of [0,1)", s)
		}
	}
	// The ensemble should be at least close to its best member.
	svm := NewRankSVM(RankSVMConfig{Seed: 1})
	svmAUC := eval.AUC(fitAndScore(t, svm, train, test), test.Label)
	if eAUC < svmAUC-0.05 {
		t.Fatalf("ensemble (%v) far below best member (%v)", eAUC, svmAUC)
	}
}

func TestEnsembleRobustToBadMember(t *testing.T) {
	train := gaussianSet(93, 600, 0.2, 2.5, 4)
	test := gaussianSet(94, 300, 0.2, 2.5, 4)
	// A deliberately inverted member: strong model with flipped ranks is
	// simulated by weighting it zero, and separately by drowning it 3-to-1.
	good1 := NewRankSVM(RankSVMConfig{Seed: 1})
	good2 := NewRankSVM(RankSVMConfig{Seed: 2})
	good3 := NewDirectAUC(DirectAUCConfig{Seed: 3, Generations: 15})
	bad := NewRankSVM(RankSVMConfig{Seed: 4, Epochs: 1, PairsPerEpoch: 1}) // nearly random
	e := NewEnsemble(nil, good1, good2, good3, bad)
	scores := fitAndScore(t, e, train, test)
	if auc := eval.AUC(scores, test.Label); auc < 0.85 {
		t.Fatalf("ensemble with one weak member collapsed: AUC %v", auc)
	}
}

func TestEnsembleWeights(t *testing.T) {
	train := gaussianSet(95, 400, 0.2, 2.5, 4)
	// Zero weight silences a member entirely.
	strong := NewRankSVM(RankSVMConfig{Seed: 1})
	silent := NewRankSVM(RankSVMConfig{Seed: 9, Epochs: 1, PairsPerEpoch: 1})
	e := NewEnsemble([]float64{1, 0}, strong, silent)
	scores := fitAndScore(t, e, train, train)

	solo := NewRankSVM(RankSVMConfig{Seed: 1})
	soloScores := fitAndScore(t, solo, train, train)
	if eval.AUC(scores, train.Label) != eval.AUC(soloScores, train.Label) {
		t.Fatal("zero-weighted member changed the ranking")
	}
}

func TestEnsembleErrors(t *testing.T) {
	train := gaussianSet(96, 200, 0.3, 2, 3)
	if err := NewEnsemble(nil).Fit(train); err == nil {
		t.Fatal("no members must error")
	}
	if err := NewEnsemble([]float64{1}, NewRankSVM(RankSVMConfig{}), NewRankSVM(RankSVMConfig{})).Fit(train); err == nil {
		t.Fatal("weight count mismatch must error")
	}
	if err := NewEnsemble([]float64{-1}, NewRankSVM(RankSVMConfig{})).Fit(train); err == nil {
		t.Fatal("negative weight must error")
	}
	if err := NewEnsemble([]float64{0}, NewRankSVM(RankSVMConfig{})).Fit(train); err == nil {
		t.Fatal("zero-sum weights must error")
	}
	e := NewEnsemble(nil, NewRankSVM(RankSVMConfig{Seed: 1}))
	if _, err := e.Scores(train); err == nil {
		t.Fatal("Scores before Fit must error")
	}
	// A member that fails to fit propagates.
	bad := NewEnsemble(nil, NewRankSVM(RankSVMConfig{}))
	if err := bad.Fit(&feature.Set{}); err == nil {
		t.Fatal("member fit failure must propagate")
	}
}
