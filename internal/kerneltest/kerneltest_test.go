package kerneltest

import (
	"math"
	"testing"

	"repro/internal/eval"
	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// aucCase generates one scores/labels pair from the tie/sign corpus.
type aucCase struct {
	name   string
	scores []float64
	labels []bool
}

// aucCorpus crosses sizes with score distributions (continuous, heavy
// quantized ties, all-equal, mixed signs with both zeros, wide
// magnitudes) and label balances (rare positives like the pipe-failure
// sets, balanced, single-class).
func aucCorpus(seed int64) []aucCase {
	rng := stats.NewRNG(seed)
	var cases []aucCase
	sizes := []int{0, 1, 2, 3, 7, 64, 257, 1000}
	for _, n := range sizes {
		for _, sp := range []struct {
			name string
			gen  func(i int) float64
		}{
			{"continuous", func(int) float64 { return rng.Uniform(-3, 3) }},
			{"quantized2", func(int) float64 { return float64(rng.Intn(2)) }},
			{"quantized5", func(int) float64 { return float64(rng.Intn(5)) - 2 }},
			{"all-equal", func(int) float64 { return 1.25 }},
			{"signed-zeros", func(i int) float64 {
				switch rng.Intn(4) {
				case 0:
					return 0.0
				case 1:
					return math.Copysign(0, -1)
				default:
					return rng.Uniform(-1, 1)
				}
			}},
			{"wide", func(int) float64 {
				return rng.Uniform(-1, 1) * math.Pow(10, float64(rng.Intn(21)-10))
			}},
		} {
			for _, lp := range []struct {
				name string
				gen  func() bool
			}{
				{"rare-pos", func() bool { return rng.Bernoulli(0.05) }},
				{"balanced", func() bool { return rng.Bernoulli(0.5) }},
				{"all-pos", func() bool { return true }},
				{"all-neg", func() bool { return false }},
			} {
				scores := make([]float64, n)
				labels := make([]bool, n)
				for i := range scores {
					scores[i] = sp.gen(i)
					labels[i] = lp.gen()
				}
				cases = append(cases, aucCase{sp.name + "/" + lp.name, scores, labels})
			}
		}
	}
	return cases
}

// TestAUCOraclesAgree pins the harness against itself: the stable-sort
// rank formulation and the O(P·N) pairwise definition must agree bitwise
// (both are half-integer arithmetic below 2^53).
func TestAUCOraclesAgree(t *testing.T) {
	for _, c := range aucCorpus(101) {
		a, b := AUCOracleSort(c.scores, c.labels), AUCOraclePairwise(c.scores, c.labels)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s (n=%d): sort oracle %v != pairwise oracle %v", c.name, len(c.scores), a, b)
		}
	}
}

// TestAUCKernelBitIdenticalToOracles is the exact-mode gate for the
// counting-rank kernel: its whole claim is replaying the legacy float
// sequence, so no epsilon is allowed.
func TestAUCKernelBitIdenticalToOracles(t *testing.T) {
	var k eval.AUCKernel
	for _, c := range aucCorpus(202) {
		want := AUCOracleSort(c.scores, c.labels)
		got := k.Compute(c.scores, c.labels)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s (n=%d): kernel %v != sort oracle %v", c.name, len(c.scores), got, want)
		}
		if pw := AUCOraclePairwise(c.scores, c.labels); math.Float64bits(got) != math.Float64bits(pw) {
			t.Fatalf("%s (n=%d): kernel %v != pairwise oracle %v", c.name, len(c.scores), got, pw)
		}
	}
}

// TestAUCKernelParallelBitIdentical runs the counting pass with several
// worker counts on an input large enough to engage the pool and demands
// bitwise agreement with the serial kernel: per-worker integer count
// slabs merged by integer addition cannot depend on the partition.
func TestAUCKernelParallelBitIdentical(t *testing.T) {
	rng := stats.NewRNG(7)
	n := 20000
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = float64(rng.Intn(97)) / 7
		labels[i] = rng.Bernoulli(0.04)
	}
	var serial eval.AUCKernel
	want := serial.Compute(scores, labels)
	for _, w := range []int{2, 3, 8} {
		k := eval.AUCKernel{Pool: parallel.New(w)}
		got := k.Compute(scores, labels)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("workers=%d: %v != serial %v", w, got, want)
		}
	}
}

// TestDotExactBitIdentical pins the inner product to the naive
// sequential oracle over every remainder-lane length and value pattern.
func TestDotExactBitIdentical(t *testing.T) {
	rng := stats.NewRNG(11)
	for _, p := range Patterns {
		for _, n := range Lengths {
			a, b := p.Gen(rng, n), p.Gen(rng, n)
			want := DotOracle(a, b)
			if got := linalg.Dot(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Dot %s n=%d: %v != oracle %v", p.Name, n, got, want)
			}
		}
	}
}

// TestMatVecExactBitIdentical pins the 4-row blocked kernel to per-row
// naive dots across every row-count remainder class and stride lane.
func TestMatVecExactBitIdentical(t *testing.T) {
	rng := stats.NewRNG(13)
	strides := []int{0, 1, 2, 3, 4, 5, 7, 8, 13, 32, 33}
	for _, p := range Patterns {
		for _, rows := range RowCounts {
			for _, stride := range strides {
				flat := p.Gen(rng, rows*stride)
				x := p.Gen(rng, stride)
				want := make([]float64, rows)
				MatVecOracle(want, flat, stride, x)
				got := make([]float64, rows)
				linalg.MatVec(got, flat, stride, x)
				for r := range want {
					if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
						t.Fatalf("MatVec %s %dx%d row %d: %v != oracle %v",
							p.Name, rows, stride, r, got[r], want[r])
					}
				}
			}
		}
	}
}
