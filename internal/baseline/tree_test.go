package baseline

import (
	"strings"
	"testing"

	"repro/internal/feature"
	"repro/internal/stats"
)

// xorSet builds a 2-feature XOR-ish dataset that no linear model can
// separate but a depth-2 tree can.
func xorSet(seed int64, n int) *feature.Set {
	rng := stats.NewRNG(seed)
	s := feature.NewDense([]string{"a", "b"}, n, 2)
	for i := 0; i < n; i++ {
		a, b := rng.Norm(), rng.Norm()
		pos := (a > 0) != (b > 0)
		// 10% label noise keeps leaves impure.
		if rng.Bernoulli(0.1) {
			pos = !pos
		}
		copy(s.Row(i, nil), []float64{a, b})
		s.Label[i] = pos
		s.Age[i] = 1
		s.LengthM[i] = 1
		s.PipeIdx[i] = i
	}
	return s
}

func allRows(s *feature.Set) []int {
	rows := make([]int, s.Len())
	for i := range rows {
		rows[i] = i
	}
	return rows
}

func TestCartTreeLearnsXOR(t *testing.T) {
	train := xorSet(1, 2000)
	test := xorSet(2, 800)
	tree := fitTree(train, allRows(train), TreeConfig{MaxDepth: 4, MinLeaf: 10}, nil)
	scores := make([]float64, test.Len())
	for i := range scores {
		scores[i] = tree.predict(test.Row(i, nil))
	}
	if a := testAUC(scores, test.Label); a < 0.85 {
		t.Fatalf("tree XOR AUC = %v", a)
	}
	if d := tree.depth(); d < 2 || d > 4 {
		t.Fatalf("tree depth %d, want 2..4", d)
	}
}

func TestCartTreeRespectsLimits(t *testing.T) {
	train := xorSet(3, 500)
	// MaxDepth 0 is replaced by the default; use 1 for a stump.
	stump := fitTree(train, allRows(train), TreeConfig{MaxDepth: 1, MinLeaf: 10}, nil)
	if d := stump.depth(); d > 1 {
		t.Fatalf("stump depth %d", d)
	}
	// MinLeaf larger than half the data forbids any split.
	leafOnly := fitTree(train, allRows(train), TreeConfig{MaxDepth: 5, MinLeaf: 400}, nil)
	if d := leafOnly.depth(); d != 0 {
		t.Fatalf("leaf-only depth %d", d)
	}
	// Root probability equals the positive fraction.
	want := posFraction(train, allRows(train))
	if got := leafOnly.nodes[0].prob; got != want {
		t.Fatalf("root prob %v, want %v", got, want)
	}
}

func TestCartTreePureLeafStopsEarly(t *testing.T) {
	s := feature.NewDense([]string{"x"}, 100, 1)
	for i := range s.Label {
		s.Row(i, nil)[0] = float64(i)
		s.Label[i] = true // single class
		s.Age[i] = 1
		s.LengthM[i] = 1
		s.PipeIdx[i] = i
	}
	tree := fitTree(s, allRows(s), TreeConfig{MaxDepth: 5, MinLeaf: 5}, nil)
	if tree.depth() != 0 {
		t.Fatal("pure node must not split")
	}
	if tree.predict([]float64{50}) != 1 {
		t.Fatal("pure positive leaf must predict 1")
	}
}

func TestRandomForestLearnsXOR(t *testing.T) {
	train := xorSet(5, 2000)
	test := xorSet(6, 800)
	m := NewRandomForest(ForestConfig{Seed: 7, Trees: 30})
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	if len(m.trees) != 30 {
		t.Fatalf("trees = %d", len(m.trees))
	}
	scores, err := m.Scores(test)
	if err != nil {
		t.Fatal(err)
	}
	if a := testAUC(scores, test.Label); a < 0.85 {
		t.Fatalf("forest XOR AUC = %v (a linear model would be ~0.5)", a)
	}
	for _, s := range scores {
		if s < 0 || s > 1 {
			t.Fatalf("score %v out of [0,1]", s)
		}
	}
}

func TestRandomForestOnPipeData(t *testing.T) {
	train, test := sets(t)
	m := NewRandomForest(ForestConfig{Seed: 11, Trees: 25})
	if a := auc(t, m, train, test); a < 0.6 {
		t.Fatalf("forest pipe AUC = %v", a)
	}
}

func TestRandomForestDeterminism(t *testing.T) {
	train := xorSet(8, 600)
	m1 := NewRandomForest(ForestConfig{Seed: 9, Trees: 10})
	m2 := NewRandomForest(ForestConfig{Seed: 9, Trees: 10})
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
			t.Fatal("forest not deterministic")
		}
	}
}

func TestRandomForestErrors(t *testing.T) {
	m := NewRandomForest(ForestConfig{Seed: 1})
	if err := m.Fit(nil); err == nil {
		t.Fatal("nil train must error")
	}
	if _, err := m.Scores(&feature.Set{}); err == nil {
		t.Fatal("unfitted Scores must error")
	}
	oneClass := xorSet(10, 50)
	for i := range oneClass.Label {
		oneClass.Label[i] = false
	}
	if err := m.Fit(oneClass); err == nil {
		t.Fatal("single-class train must error")
	}
}

// TestRandomForestScoresChecksDim: a set narrower or wider than the
// fitted one must be refused, not scored on the wrong columns.
func TestRandomForestScoresChecksDim(t *testing.T) {
	m := NewRandomForest(ForestConfig{Seed: 1, Trees: 5})
	if err := m.Fit(xorSet(11, 200)); err != nil {
		t.Fatal(err)
	}
	for _, x := range [][]float64{{0.5}, {0.5, -0.5, 1}} {
		s := feature.NewDense(nil, 1, len(x))
		copy(s.Row(0, nil), x)
		_, err := m.Scores(s)
		if err == nil || !strings.Contains(err.Error(), "test dim") {
			t.Fatalf("dim %d: err = %v", len(x), err)
		}
	}
}
