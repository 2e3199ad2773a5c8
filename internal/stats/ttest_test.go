package stats

import (
	"math"
	"testing"
)

func TestPairedTTestKnownValue(t *testing.T) {
	// Hand-computed paired sample: diffs = {2,1,1,3,1}, mean 1.6,
	// sd = sqrt(0.8), so t = 1.6/(sqrt(0.8)/sqrt(5)) = 4 exactly, df = 4.
	// One-sided p = 1 - pt(4, 4) = 0.0080650.
	x := []float64{12, 14, 11, 15, 13}
	y := []float64{10, 13, 10, 12, 12}
	r, err := PairedTTest(x, y, Greater, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r.T, 4, 1e-12) {
		t.Fatalf("t = %v", r.T)
	}
	if r.DF != 4 {
		t.Fatalf("df = %v", r.DF)
	}
	if !almostEqual(r.P, 0.00806504495004623, 1e-9) {
		t.Fatalf("p = %v", r.P)
	}
	if !r.Significant {
		t.Fatal("should be significant at 0.05")
	}
	if r.String() == "" {
		t.Fatal("String should not be empty")
	}
}

func TestPairedTTestTwoSidedDoublesOneSided(t *testing.T) {
	x := []float64{1.2, 0.9, 1.4, 1.1, 1.3, 0.8}
	y := []float64{1.0, 1.0, 1.0, 1.0, 1.0, 1.0}
	one, err := PairedTTest(x, y, Greater, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	two, err := PairedTTest(x, y, TwoSided, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if one.MeanDiff <= 0 {
		t.Fatal("mean diff should be positive here")
	}
	if !almostEqual(two.P, 2*one.P, 1e-10) {
		t.Fatalf("two-sided %v != 2 * one-sided %v", two.P, one.P)
	}
}

func TestPairedTTestLessAlternative(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{2, 3, 4}
	r, err := PairedTTest(x, y, Less, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.T >= 0 {
		t.Fatalf("t should be negative, got %v", r.T)
	}
	if r.P >= 0.5 {
		t.Fatalf("p should favor the Less alternative, got %v", r.P)
	}
}

func TestPairedTTestIdenticalSamples(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	r, err := PairedTTest(x, x, TwoSided, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.T != 0 {
		t.Fatalf("t = %v, want 0", r.T)
	}
	if r.Significant {
		t.Fatal("identical samples must not be significant")
	}
}

func TestPairedTTestConstantPositiveDiff(t *testing.T) {
	// Zero variance in diffs with positive mean: t = +Inf, p -> 0.
	x := []float64{2, 3, 4}
	y := []float64{1, 2, 3}
	r, err := PairedTTest(x, y, Greater, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(r.T, 1) {
		t.Fatalf("t = %v, want +Inf", r.T)
	}
	if r.P != 0 || !r.Significant {
		t.Fatalf("p = %v, want 0 (significant)", r.P)
	}
}

func TestPairedTTestErrors(t *testing.T) {
	if _, err := PairedTTest([]float64{1}, []float64{1, 2}, Greater, 0.05); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := PairedTTest([]float64{1}, []float64{2}, Greater, 0.05); err == nil {
		t.Fatal("n<2 must error")
	}
	if _, err := PairedTTest([]float64{1, 2}, []float64{2, 3}, Alternative(99), 0.05); err == nil {
		t.Fatal("unknown alternative must error")
	}
}
