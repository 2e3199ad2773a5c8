package eval

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestAUCKnownValues(t *testing.T) {
	if got := AUC([]float64{1, 2, 3, 4}, []bool{false, false, true, true}); got != 1 {
		t.Fatalf("perfect AUC = %v", got)
	}
	if got := AUC([]float64{4, 3, 2, 1}, []bool{false, false, true, true}); got != 0 {
		t.Fatalf("inverted AUC = %v", got)
	}
	if got := AUC([]float64{5, 5, 5}, []bool{true, false, true}); got != 0.5 {
		t.Fatalf("tied AUC = %v", got)
	}
	if got := AUC(nil, nil); got != 0.5 {
		t.Fatalf("empty AUC = %v", got)
	}
	if got := AUC([]float64{1, 2}, []bool{true, true}); got != 0.5 {
		t.Fatalf("single-class AUC = %v", got)
	}
	// Hand-worked: scores 3,1,2 labels T,F,F → positive beats both → 1.
	if got := AUC([]float64{3, 1, 2}, []bool{true, false, false}); got != 1 {
		t.Fatalf("AUC = %v", got)
	}
	// Half: positive ties one negative, beats none of the other.
	if got := AUC([]float64{2, 2, 3}, []bool{true, false, false}); got != 0.25 {
		t.Fatalf("AUC = %v, want 0.25", got)
	}
}

func TestAUCPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	AUC([]float64{1}, []bool{true, false})
}

// Property: AUC equals the brute-force pair count.
func TestAUCMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(60)
		scores := make([]float64, n)
		labels := make([]bool, n)
		for i := range scores {
			// Coarse grid to force ties.
			scores[i] = float64(rng.Intn(6))
			labels[i] = rng.Bernoulli(0.4)
		}
		var wins, ties, pairs float64
		for i := range scores {
			if !labels[i] {
				continue
			}
			for j := range scores {
				if labels[j] {
					continue
				}
				pairs++
				if scores[i] > scores[j] {
					wins++
				} else if scores[i] == scores[j] {
					ties++
				}
			}
		}
		want := 0.5
		if pairs > 0 {
			want = (wins + ties/2) / pairs
		}
		return math.Abs(AUC(scores, labels)-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDetectionAtPerfectRanking(t *testing.T) {
	// 100 pipes, 10 failures, all ranked at the top.
	scores := make([]float64, 100)
	labels := make([]bool, 100)
	for i := 0; i < 10; i++ {
		scores[i] = float64(100 - i)
		labels[i] = true
	}
	for i := 10; i < 100; i++ {
		scores[i] = float64(50 - i)
	}
	if got := DetectionAt(scores, labels, 0.10); got != 1 {
		t.Fatalf("perfect detection@10%% = %v", got)
	}
	if got := DetectionAt(scores, labels, 0.05); got != 0.5 {
		t.Fatalf("perfect detection@5%% = %v", got)
	}
	if got := DetectionAt(scores, labels, 0.01); got != 0.1 {
		t.Fatalf("perfect detection@1%% = %v", got)
	}
}

func TestDetectionAtEdgeCases(t *testing.T) {
	if got := DetectionAt(nil, nil, 0.5); got != 0 {
		t.Fatalf("empty = %v", got)
	}
	if got := DetectionAt([]float64{1, 2}, []bool{false, false}, 0.5); got != 0 {
		t.Fatalf("no positives = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad frac must panic")
		}
	}()
	DetectionAt([]float64{1}, []bool{true}, 0)
}

func TestDetectionCurveShape(t *testing.T) {
	rng := stats.NewRNG(5)
	n := 500
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = rng.Float64()
		labels[i] = rng.Bernoulli(0.1)
	}
	curve := DetectionCurve(scores, labels, 50)
	if curve[0].X != 0 || curve[0].Y != 0 {
		t.Fatalf("curve must start at origin: %+v", curve[0])
	}
	last := curve[len(curve)-1]
	if last.X != 1 || last.Y != 1 {
		t.Fatalf("curve must end at (1,1): %+v", last)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].X < curve[i-1].X || curve[i].Y < curve[i-1].Y-1e-12 {
			t.Fatalf("curve not monotone at %d: %+v -> %+v", i, curve[i-1], curve[i])
		}
	}
}

func TestDetectionCurveConsistentWithDetectionAt(t *testing.T) {
	rng := stats.NewRNG(6)
	n := 200
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = rng.Float64()
		labels[i] = rng.Bernoulli(0.2)
	}
	curve := DetectionCurve(scores, labels, 100)
	pos := 0
	for _, v := range labels {
		if v {
			pos++
		}
	}
	// ceil(frac*n) can differ by one rank from the curve's emission point
	// when frac*n lands on a float-representation boundary, which moves the
	// detection level by at most one positive.
	tol := 1.0/float64(pos) + 1e-9
	for _, p := range curve[1:] {
		want := DetectionAt(scores, labels, p.X)
		if math.Abs(p.Y-want) > tol {
			t.Fatalf("curve(%v) = %v but DetectionAt = %v", p.X, p.Y, want)
		}
	}
}

func TestDetectionAtLength(t *testing.T) {
	// Three pipes: the top-ranked one is long, so a small length budget
	// inspects only it.
	scores := []float64{10, 5, 1}
	labels := []bool{true, true, false}
	lengths := []float64{800, 100, 100}
	// 10% of 1000m = 100m budget: inspect pipe 0 only (budget exhausted
	// after starting it) → catches 1 of 2.
	if got := DetectionAtLength(scores, labels, lengths, 0.1); got != 0.5 {
		t.Fatalf("detection@10%%length = %v", got)
	}
	if got := DetectionAtLength(scores, labels, lengths, 1); got != 1 {
		t.Fatalf("full budget = %v", got)
	}
	if got := DetectionAtLength(scores, []bool{false, false, false}, lengths, 0.5); got != 0 {
		t.Fatal("no positives must be 0")
	}
}

func TestPartialDetectionArea(t *testing.T) {
	// Perfect ranking of 10 positives among 100: detection rises linearly
	// to 1 at x=0.1; area up to 0.1 ≈ 0.05 (staircase, slightly above
	// the continuous triangle because steps complete early).
	scores := make([]float64, 100)
	labels := make([]bool, 100)
	for i := 0; i < 10; i++ {
		scores[i] = float64(100 - i)
		labels[i] = true
	}
	got := PartialDetectionArea(scores, labels, 0.1)
	if got < 0.05 || got > 0.06 {
		t.Fatalf("partial area = %v, want about 0.055", got)
	}
	// Full area of a perfect ranking ≈ 1 − posFrac/2.
	full := PartialDetectionArea(scores, labels, 1)
	if full < 0.94 || full > 0.96 {
		t.Fatalf("full area = %v", full)
	}
	// Worst ranking: positives at the bottom → tiny partial area.
	inv := make([]float64, 100)
	for i := range inv {
		inv[i] = -scores[i]
	}
	if worst := PartialDetectionArea(inv, labels, 0.1); worst != 0 {
		t.Fatalf("worst partial area = %v", worst)
	}
	if zero := PartialDetectionArea(scores, make([]bool, 100), 0.1); zero != 0 {
		t.Fatal("no positives must be 0")
	}
}

func TestTopK(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.7}
	top := TopK(scores, 2)
	if len(top) != 2 || top[0] != 1 || top[1] != 3 {
		t.Fatalf("TopK = %v", top)
	}
	if got := TopK(scores, 99); len(got) != 4 {
		t.Fatal("k clamps to n")
	}
	if got := TopK(scores, -1); len(got) != 0 {
		t.Fatal("negative k clamps to 0")
	}
	// Deterministic tie-break by index.
	tie := TopK([]float64{5, 5, 5}, 2)
	if tie[0] != 0 || tie[1] != 1 {
		t.Fatalf("tie break = %v", tie)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "model", "auc")
	tb.AddRow("Cox", "0.7500")
	tb.AddRow("DirectAUC-ES") // short row padded
	s := tb.String()
	if !strings.Contains(s, "Demo") || !strings.Contains(s, "model") {
		t.Fatalf("render missing pieces:\n%s", s)
	}
	if tb.NumRows() != 2 {
		t.Fatal("row count")
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	// Title + header + rule + 2 rows.
	if len(lines) != 5 {
		t.Fatalf("line count %d:\n%s", len(lines), s)
	}
}

func TestFormatters(t *testing.T) {
	if got := FormatPercent(0.8267); got != "82.67%" {
		t.Fatalf("percent = %q", got)
	}
	if got := FormatBasisPoints(0.000809); got != "8.09bp" {
		t.Fatalf("bp = %q", got)
	}
}
