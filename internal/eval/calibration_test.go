package eval

import (
	"math"
	"reflect"
	"testing"
)

func TestBrierKnownValues(t *testing.T) {
	// Perfect predictions → 0; inverted → 1; 0.5 everywhere → 0.25.
	if got := Brier([]float64{1, 0}, []bool{true, false}); got != 0 {
		t.Fatalf("perfect brier = %v", got)
	}
	if got := Brier([]float64{0, 1}, []bool{true, false}); got != 1 {
		t.Fatalf("inverted brier = %v", got)
	}
	if got := Brier([]float64{0.5, 0.5}, []bool{true, false}); got != 0.25 {
		t.Fatalf("uniform brier = %v", got)
	}
	if got := Brier(nil, nil); got != 0 {
		t.Fatalf("empty brier = %v", got)
	}
}

func TestBrierPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Brier([]float64{1}, []bool{true, false})
}

func TestKendallTau(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if got := KendallTau(a, a); got != 1 {
		t.Fatalf("tau(a,a) = %v", got)
	}
	rev := []float64{4, 3, 2, 1}
	if got := KendallTau(a, rev); got != -1 {
		t.Fatalf("tau reversed = %v", got)
	}
	// One swapped adjacent pair of 4: 5 concordant, 1 discordant → 4/6.
	b := []float64{1, 3, 2, 4}
	if got := KendallTau(a, b); math.Abs(got-4.0/6.0) > 1e-12 {
		t.Fatalf("tau = %v, want %v", got, 4.0/6.0)
	}
	if KendallTau(a, a[:2]) != 0 {
		t.Fatal("mismatched lengths must return 0")
	}
	if KendallTau([]float64{1}, []float64{1}) != 0 {
		t.Fatal("single element must return 0")
	}
}

// TestKFold pins the partition StratifiedKFold makes: every index in
// exactly one fold, near-equal fold sizes, the k range checked, and the
// same folds for the same seed.
func TestKFold(t *testing.T) {
	labels := make([]bool, 10)
	labels[0] = true
	folds, err := StratifiedKFold(labels, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 3 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := map[int]bool{}
	for _, f := range folds {
		if len(f) < 3 || len(f) > 4 {
			t.Fatalf("fold size %d", len(f))
		}
		for _, i := range f {
			if seen[i] {
				t.Fatalf("index %d in two folds", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != len(labels) {
		t.Fatalf("covered %d of %d", len(seen), len(labels))
	}
	if _, err := StratifiedKFold(labels, 1, 1); err == nil {
		t.Fatal("k=1 must error")
	}
	if _, err := StratifiedKFold(labels[:3], 5, 1); err == nil {
		t.Fatal("k>n must error")
	}
	again, err := StratifiedKFold(labels, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(folds, again) {
		t.Fatal("StratifiedKFold not deterministic")
	}
}

func TestStratifiedKFoldPreservesPositives(t *testing.T) {
	labels := make([]bool, 100)
	for i := 0; i < 10; i++ {
		labels[i] = true // 10% positives
	}
	folds, err := StratifiedKFold(labels, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for fi, f := range folds {
		pos := 0
		for _, i := range f {
			if labels[i] {
				pos++
			}
		}
		if pos != 2 {
			t.Fatalf("fold %d has %d positives, want 2", fi, pos)
		}
	}
	if _, err := StratifiedKFold(labels, 1, 1); err == nil {
		t.Fatal("k=1 must error")
	}
	if _, err := StratifiedKFold(labels[:2], 5, 1); err == nil {
		t.Fatal("k>n must error")
	}
}

func TestTrainIndices(t *testing.T) {
	folds := [][]int{{0, 1}, {2, 3}, {4}}
	tr, err := TrainIndices(folds, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{0: true, 1: true, 4: true}
	if len(tr) != 3 {
		t.Fatalf("train = %v", tr)
	}
	for _, i := range tr {
		if !want[i] {
			t.Fatalf("unexpected index %d", i)
		}
	}
	if _, err := TrainIndices(folds, 9); err == nil {
		t.Fatal("bad holdout must error")
	}
}
