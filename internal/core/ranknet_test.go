package core

import (
	"testing"

	"repro/internal/eval"
	"repro/internal/feature"
	"repro/internal/stats"
)

func TestRankNetLearnsSeparableData(t *testing.T) {
	train := gaussianSet(61, 800, 0.15, 2.5, 6)
	test := gaussianSet(62, 400, 0.15, 2.5, 6)
	m := NewRankNet(RankNetConfig{Seed: 63})
	scores := fitAndScore(t, m, train, test)
	if auc := eval.AUC(scores, test.Label); auc < 0.9 {
		t.Fatalf("RankNet test AUC = %v", auc)
	}
}

// circleSet is a nonlinear problem (positives inside a ring) that a linear
// scorer cannot solve but a hidden layer can.
func circleSet(seed int64, n int) *feature.Set {
	rng := stats.NewRNG(seed)
	s := feature.NewDense([]string{"a", "b"}, n, 2)
	for i := 0; i < n; i++ {
		a, b := rng.Normal(0, 1.5), rng.Normal(0, 1.5)
		copy(s.Row(i, nil), []float64{a, b})
		s.Label[i] = a*a+b*b < 1.5
	}
	return s
}

func TestRankNetBeatsLinearOnNonlinearData(t *testing.T) {
	train := circleSet(71, 3000)
	test := circleSet(72, 1000)

	nn := NewRankNet(RankNetConfig{Seed: 73, Hidden: 16, Epochs: 40})
	nnScores := fitAndScore(t, nn, train, test)
	nnAUC := eval.AUC(nnScores, test.Label)

	lin := NewRankSVM(RankSVMConfig{Seed: 74})
	linScores := fitAndScore(t, lin, train, test)
	linAUC := eval.AUC(linScores, test.Label)

	if nnAUC < 0.75 {
		t.Fatalf("RankNet circle AUC = %v", nnAUC)
	}
	if nnAUC <= linAUC+0.1 {
		t.Fatalf("RankNet (%v) should clearly beat linear (%v) on the circle", nnAUC, linAUC)
	}
}

func TestRankNetDeterminismAndErrors(t *testing.T) {
	train := gaussianSet(81, 300, 0.2, 2, 4)
	m1 := NewRankNet(RankNetConfig{Seed: 82, Epochs: 3})
	m2 := NewRankNet(RankNetConfig{Seed: 82, Epochs: 3})
	if err := m1.Fit(train); err != nil {
		t.Fatal(err)
	}
	if err := m2.Fit(train); err != nil {
		t.Fatal(err)
	}
	s1, err := m1.Scores(train)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m2.Scores(train)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("RankNet not deterministic")
		}
	}

	m := NewRankNet(RankNetConfig{Seed: 1})
	if _, err := m.Scores(train); err == nil {
		t.Fatal("Scores before Fit must error")
	}
	if err := m.Fit(&feature.Set{}); err == nil {
		t.Fatal("empty train must error")
	}
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Scores(gaussianSet(1, 10, 0.5, 1, 9)); err == nil {
		t.Fatal("dim mismatch must error")
	}
}
