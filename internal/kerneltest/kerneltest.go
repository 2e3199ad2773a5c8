// Package kerneltest is the differential conformance harness for the
// numeric hot kernels in internal/linalg and internal/eval. Every
// optimized kernel in the tree — unrolled, row-blocked, counting-rank —
// is checked here against a deliberately naive oracle over generated
// shape/tie/sign-pattern corpora, so future kernel rewrites inherit the
// gates instead of re-deriving them. The kernels (linalg.Dot,
// linalg.MatVec, eval.AUCKernel) promise the same float operation
// sequence as the oracle, so results must match bitwise — no epsilon.
//
// The AUC oracles additionally pin the counting kernel's rank-statistic
// output against both the legacy stable-sort formulation (bitwise — the
// counting kernel replays its exact float sequence) and the O(P·N)
// pairwise definition (also bitwise for the corpus sizes used here: wins
// and rank sums are half-integers below 2^53, hence exact in float64).
package kerneltest

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// DotOracle is the naive sequential inner product: one accumulator,
// left-to-right. This is the definition every Dot variant is judged
// against.
func DotOracle(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// MatVecOracle is the naive matrix-vector product: DotOracle per row.
func MatVecOracle(dst, flat []float64, stride int, x []float64) {
	for r := range dst {
		dst[r] = DotOracle(flat[r*stride:(r+1)*stride], x)
	}
}

// AUCOracleSort is a from-scratch replica of the legacy sort-everything
// rank-statistic AUC: stable sort by score, walk tie groups ascending,
// add each group's average rank once per positive member. It performs
// exactly the float operations the eval kernels promise to replay, so
// kernel output must match it bitwise on NaN-free input.
func AUCOracleSort(scores []float64, labels []bool) float64 {
	n := len(scores)
	if n == 0 {
		return 0.5
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })

	var nPos, nNeg, rankSum float64
	i := 0
	rank := 1.0
	for i < n {
		j := i
		for j+1 < n && scores[idx[j+1]] == scores[idx[i]] {
			j++
		}
		avg := (rank + rank + float64(j-i)) / 2
		for t := i; t <= j; t++ {
			if labels[idx[t]] {
				rankSum += avg
				nPos++
			} else {
				nNeg++
			}
		}
		rank += float64(j - i + 1)
		i = j + 1
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	return (rankSum - nPos*(nPos+1)/2) / (nPos * nNeg)
}

// AUCOraclePairwise is the O(P·N) definition: count positive-over-
// negative wins with half credit for ties. Wins and pair counts are
// half-integers, exact in float64 up to 2^53, so for corpus-sized inputs
// this agrees bitwise with the rank-statistic formulations.
func AUCOraclePairwise(scores []float64, labels []bool) float64 {
	var wins, pairs float64
	for i, si := range scores {
		if !labels[i] {
			continue
		}
		for j, sj := range scores {
			if labels[j] {
				continue
			}
			pairs++
			switch {
			case si > sj:
				wins++
			case si == sj:
				wins += 0.5
			}
		}
	}
	if pairs == 0 {
		return 0.5
	}
	return wins / pairs
}

// Lengths is the shape corpus. It covers every remainder-lane class of
// the 4-wide unrolled kernels (each residue of length mod 4 at several
// block counts), the degenerate zero/one-element shapes, and a couple of
// sizes large enough that accumulated rounding differences between
// summation orders actually materialize.
var Lengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 17, 31, 32, 33, 100, 1000}

// RowCounts is the matrix-height corpus for MatVec: it crosses every
// remainder class of the 4-row blocking.
var RowCounts = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}

// Pattern generates an input vector of a given length from a named value
// distribution. Patterns are chosen so that a kernel that changed the
// summation order would change bits: uniform (baseline), alternating
// signs and cancellation (tiny results from large terms), wide dynamic
// range (absorption), constant (heavy ties downstream), and small
// integers (products exactly representable, pinning lane indexing
// rather than rounding).
type Pattern struct {
	Name string
	Gen  func(rng *stats.RNG, n int) []float64
}

// Patterns is the value-pattern corpus shared by the kernel tests.
var Patterns = []Pattern{
	{"uniform", func(rng *stats.RNG, n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Uniform(-1, 1)
		}
		return v
	}},
	{"sign-alternating", func(rng *stats.RNG, n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
			if i%2 == 1 {
				v[i] = -v[i]
			}
		}
		return v
	}},
	{"cancellation", func(rng *stats.RNG, n int) []float64 {
		// Large paired magnitudes with opposite signs plus small noise:
		// the true sum is near zero while intermediate terms are ~1e8.
		v := make([]float64, n)
		for i := range v {
			base := 1e8 * rng.Float64()
			if i%2 == 1 {
				base = -base
			}
			v[i] = base + rng.Uniform(-1, 1)
		}
		return v
	}},
	{"wide-magnitude", func(rng *stats.RNG, n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(33)-16))
			if rng.Bernoulli(0.5) {
				v[i] = -v[i]
			}
		}
		return v
	}},
	{"const-ties", func(rng *stats.RNG, n int) []float64 {
		v := make([]float64, n)
		c := rng.Uniform(-2, 2)
		for i := range v {
			v[i] = c
		}
		return v
	}},
	{"integer", func(rng *stats.RNG, n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(rng.Intn(33) - 16)
		}
		return v
	}},
}
