package eval

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/stats"
)

// pairwiseAUC is the O(|P|·|N|) definition the kernel must reproduce:
// count positive-over-negative wins, half credit for ties.
func pairwiseAUC(scores []float64, labels []bool) float64 {
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

// TestAUCKernelAgainstPairwiseReference checks the rank-statistic kernel
// against the naive pairwise definition on random inputs with heavy
// score ties (quantized scores force large tie groups).
func TestAUCKernelAgainstPairwiseReference(t *testing.T) {
	rng := stats.NewRNG(7)
	var k AUCKernel
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(120)
		// Quantize scores to few levels so ties dominate; occasionally use
		// continuous scores too.
		levels := 1 + rng.Intn(6)
		continuous := trial%10 == 0
		scores := make([]float64, n)
		labels := make([]bool, n)
		for i := range scores {
			if continuous {
				scores[i] = rng.Float64()
			} else {
				scores[i] = float64(rng.Intn(levels))
			}
			labels[i] = rng.Bernoulli(0.3)
		}
		want := pairwiseAUC(scores, labels)
		got := k.Compute(scores, labels)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d (n=%d, levels=%d): kernel %v != pairwise %v",
				trial, n, levels, got, want)
		}
		// The one-shot wrapper must agree exactly.
		if w := AUC(scores, labels); w != got {
			t.Fatalf("trial %d: AUC wrapper %v != kernel %v", trial, w, got)
		}
	}
}

func TestAUCKernelDegenerate(t *testing.T) {
	var k AUCKernel
	if got := k.Compute(nil, nil); got != 0.5 {
		t.Fatalf("empty input: %v", got)
	}
	if got := k.Compute([]float64{1, 2}, []bool{true, true}); got != 0.5 {
		t.Fatalf("single class: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	k.Compute([]float64{1}, []bool{true, false})
}

// TestAUCKernelZeroAlloc is the allocation-regression gate for the ES
// fitness path: after the warm-up call, Compute must not allocate.
func TestAUCKernelZeroAlloc(t *testing.T) {
	rng := stats.NewRNG(3)
	n := 4096
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = float64(rng.Intn(50)) // heavy ties exercise the group walk
		labels[i] = rng.Bernoulli(0.1)
	}
	var k AUCKernel
	allocs := testing.AllocsPerRun(20, func() {
		if a := k.Compute(scores, labels); a < 0 || a > 1 {
			t.Fatalf("AUC out of range: %v", a)
		}
	})
	if allocs != 0 {
		t.Fatalf("AUCKernel.Compute allocates %v per run in steady state, want 0", allocs)
	}
}

// TestAUCKernelRadixPathZeroAlloc is TestAUCKernelZeroAlloc with enough
// positives to take the radix sort, whose ping-pong buffer and digit
// histograms must also be reused across calls.
func TestAUCKernelRadixPathZeroAlloc(t *testing.T) {
	rng := stats.NewRNG(5)
	n := 17305
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = rng.Norm()
		labels[i] = rng.Bernoulli(0.2)
	}
	var k AUCKernel
	allocs := testing.AllocsPerRun(20, func() {
		if a := k.Compute(scores, labels); a < 0 || a > 1 {
			t.Fatalf("AUC out of range: %v", a)
		}
	})
	if len(k.posKey) < radixSortMin {
		t.Fatalf("%d positives do not reach the radix path (%d)", len(k.posKey), radixSortMin)
	}
	if allocs != 0 {
		t.Fatalf("AUCKernel.Compute allocates %v per run on the radix path, want 0", allocs)
	}
}

// TestRadixSortKeysMatchesSort holds the radix sort to slices.Sort at the
// digit-boundary sizes (one bucket's worth of keys and either side of it)
// and on key sets where some or all passes are skipped: all-equal keys,
// keys that differ only in their lowest or only in their highest byte,
// and keys of special floats (both infinities, subnormals, both zeros).
func TestRadixSortKeysMatchesSort(t *testing.T) {
	rng := stats.NewRNG(31)
	specials := []float64{math.Inf(1), math.Inf(-1), 0, 5e-324, -5e-324,
		math.SmallestNonzeroFloat64 * 1000, -math.MaxFloat64, math.MaxFloat64, 1, -1}
	patterns := []struct {
		name string
		gen  func(i int) uint64
	}{
		{"random", func(int) uint64 { return uint64(rng.Int63())<<1 ^ uint64(rng.Int63()) }},
		{"all-equal", func(int) uint64 { return 0x9e3779b97f4a7c15 }},
		{"low-byte", func(int) uint64 { return 0xc000000000000000 | uint64(rng.Intn(256)) }},
		{"high-byte", func(int) uint64 { return uint64(rng.Intn(256))<<56 | 0x42 }},
		{"normal-scores", func(int) uint64 { return floatOrdKey(rng.Norm() + 0.0) }},
		{"int-scores", func(int) uint64 { return floatOrdKey(float64(rng.Intn(9)-4) + 0.0) }},
		{"specials", func(int) uint64 { return floatOrdKey(specials[rng.Intn(len(specials))] + 0.0) }},
	}
	var cnt radixCounts
	for _, n := range []int{1, 2, 255, 256, 257, 4096} {
		for _, p := range patterns {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = p.gen(i)
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			got := radixSortKeys(keys, make([]uint64, n), &cnt)
			if !slices.Equal(got, want) {
				t.Fatalf("%s n=%d: radix order differs from slices.Sort", p.name, n)
			}
		}
	}
}

// TestAUCKernelMatchesLegacySort is the in-package differential gate for
// the counting-rank kernel: on NaN-free input it must reproduce the
// legacy sort-everything kernel bit for bit (the counting pass replays
// the same float operation sequence), across continuous, heavily tied,
// negative, and signed-zero score distributions.
func TestAUCKernelMatchesLegacySort(t *testing.T) {
	rng := stats.NewRNG(23)
	var k, legacy AUCKernel
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(400)
		scores := make([]float64, n)
		labels := make([]bool, n)
		for i := range scores {
			switch trial % 4 {
			case 0:
				scores[i] = rng.Uniform(-5, 5)
			case 1:
				scores[i] = float64(rng.Intn(7) - 3)
			case 2:
				scores[i] = math.Copysign(0, float64(rng.Intn(3)-1))
			default:
				scores[i] = rng.Norm() * math.Pow(10, float64(rng.Intn(13)-6))
			}
			labels[i] = rng.Bernoulli(0.25)
		}
		got := k.Compute(scores, labels)
		want := legacy.computeViaSort(scores, labels)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (n=%d): counting %v != sort %v", trial, n, got, want)
		}
	}
}

// TestAUCKernelNaNFallsBackToSort pins the NaN escape hatch: a NaN
// score routes Compute to the legacy sort kernel, so both spellings
// agree even though no counting identity holds for unordered values.
func TestAUCKernelNaNFallsBackToSort(t *testing.T) {
	scores := []float64{0.3, math.NaN(), 0.7, 0.1, math.NaN(), 0.9}
	labels := []bool{true, false, false, true, true, false}
	var k, legacy AUCKernel
	got := k.Compute(scores, labels)
	want := legacy.computeViaSort(scores, labels)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("NaN input: Compute %v != computeViaSort %v", got, want)
	}
	// The fallback must not poison the kernel: a clean follow-up call
	// still matches the counting path.
	clean := []float64{0.2, 0.8, 0.5, 0.5}
	cleanLabels := []bool{false, true, true, false}
	if g, w := k.Compute(clean, cleanLabels), legacy.computeViaSort(clean, cleanLabels); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("post-NaN reuse: %v != %v", g, w)
	}
}

// referenceRankOrder is the pre-kernel implementation: stable sort by
// score descending (stability supplies the index tiebreak).
func referenceRankOrder(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	return idx
}

func TestRankerMatchesStableSort(t *testing.T) {
	rng := stats.NewRNG(11)
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(200)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(8)) // ties stress the index tiebreak
		}
		want := referenceRankOrder(scores)
		got := Order(scores)
		if len(got) != len(want) {
			t.Fatalf("trial %d: length %d != %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: order[%d] = %d != stable-sort %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestTopKMatchesFullSort(t *testing.T) {
	rng := stats.NewRNG(13)
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(300)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(10))
		}
		full := referenceRankOrder(scores)
		for _, k := range []int{-1, 0, 1, 2, n / 2, n - 1, n, n + 5} {
			want := full
			kk := k
			if kk < 0 {
				kk = 0
			}
			if kk > n {
				kk = n
			}
			want = full[:kk]
			got := TopK(scores, k)
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: length %d != %d", trial, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d k=%d: topk[%d] = %d != sorted %d", trial, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRankerTopKHeavyTiesProperty is the tie-saturation property check:
// for score vectors dominated by (or consisting entirely of) equal
// values, Order and TopK must agree with the full stable sort at the
// exact boundary ks — 0, 1, n-1, n and n+1 — where clamping edge cases
// live. The levels=1 case makes every score identical, so the entire
// ordering is decided by the index tiebreak.
func TestRankerTopKHeavyTiesProperty(t *testing.T) {
	rng := stats.NewRNG(29)
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(250)
		levels := 1 + trial%3 // 1 (all equal), 2, 3 distinct values
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(levels))
		}
		full := referenceRankOrder(scores)
		order := Order(scores)
		for i := range full {
			if order[i] != full[i] {
				t.Fatalf("trial %d (n=%d, levels=%d): Order[%d] = %d != stable %d",
					trial, n, levels, i, order[i], full[i])
			}
		}
		for _, k := range []int{0, 1, n - 1, n, n + 1} {
			kk := k
			if kk < 0 {
				kk = 0
			}
			if kk > n {
				kk = n
			}
			got := TopK(scores, k)
			if len(got) != kk {
				t.Fatalf("trial %d (n=%d, levels=%d) k=%d: len %d != %d",
					trial, n, levels, k, len(got), kk)
			}
			for i := 0; i < kk; i++ {
				if got[i] != full[i] {
					t.Fatalf("trial %d (n=%d, levels=%d) k=%d: TopK[%d] = %d != stable %d",
						trial, n, levels, k, i, got[i], full[i])
				}
			}
		}
	}
}

func BenchmarkAUCKernel(b *testing.B) {
	rng := stats.NewRNG(1)
	n := 100000
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = rng.Float64()
		labels[i] = rng.Bernoulli(0.03)
	}
	var k AUCKernel
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a := k.Compute(scores, labels); a < 0.4 || a > 0.6 {
			b.Fatalf("AUC %v", a)
		}
	}
}

func BenchmarkTopK(b *testing.B) {
	rng := stats.NewRNG(3)
	n := 20000
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = rng.Norm()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ids := TopK(scores, 50); len(ids) != 50 {
			b.Fatal("bad topk")
		}
	}
}

// BenchmarkOrder orders a full ranking at the serve snapshot's shape:
// the 15,189 ranked pipes of full-scale region A.
func BenchmarkOrder(b *testing.B) {
	rng := stats.NewRNG(3)
	scores := make([]float64, 15189)
	for i := range scores {
		scores[i] = rng.Norm()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ids := Order(scores); len(ids) != len(scores) {
			b.Fatal("bad order")
		}
	}
}
