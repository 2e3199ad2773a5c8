package eval

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/parallel"
	"repro/internal/stats"
)

// aucFuzzBytes encodes a scores/labels pair in the fuzz wire format:
// 9 bytes per item — 8 little-endian float64 bytes then a label byte
// whose low bit is the class.
func aucFuzzBytes(scores []float64, labels []bool) []byte {
	buf := make([]byte, 0, 9*len(scores))
	for i, s := range scores {
		var item [9]byte
		binary.LittleEndian.PutUint64(item[:8], math.Float64bits(s))
		if labels[i] {
			item[8] = 1
		}
		buf = append(buf, item[:]...)
	}
	return buf
}

// FuzzAUCKernelVsNaive decodes arbitrary bytes into a scores/labels pair
// and demands that the counting-rank kernel, the legacy sort kernel and
// the O(P·N) pairwise definition agree bitwise. NaN payloads are
// normalized to 0 before the comparison: the kernel's NaN behavior is a
// documented fallback to the sort path (covered by
// TestAUCKernelNaNFallsBackToSort), while the pairwise oracle has no
// meaningful NaN semantics to differ against.
func FuzzAUCKernelVsNaive(f *testing.F) {
	// All-ties: every score equal, both classes present.
	f.Add(aucFuzzBytes(
		[]float64{1.5, 1.5, 1.5, 1.5, 1.5},
		[]bool{true, false, true, false, false}))
	// Single class: AUC degenerates to 0.5 on both paths.
	f.Add(aucFuzzBytes([]float64{0.1, 0.7, 0.3}, []bool{true, true, true}))
	f.Add(aucFuzzBytes([]float64{0.1, 0.7, 0.3}, []bool{false, false, false}))
	// NaN-free adversarial: infinities, both zeros, denormals, adjacent
	// representable values, and quantized integers forcing tie groups
	// that straddle the sign boundary.
	f.Add(aucFuzzBytes(
		[]float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324, -5e-324,
			1, math.Nextafter(1, 2), -2, -2, 3, 3, 0, 1},
		[]bool{true, false, true, false, true, false, true, false, true, false, true, false, true, false}))
	f.Add([]byte{})
	f.Add(aucFuzzBytes([]float64{42}, []bool{true}))
	// Positive counts at and around the radix sort's digit and cutoff
	// boundaries, each over a different score shape.
	rng := stats.NewRNG(41)
	shapes := []func() float64{
		func() float64 { return 0.75 },                     // all equal
		func() float64 { return float64(rng.Intn(7) - 3) }, // tie-heavy integers
		func() float64 { return math.Copysign(0, float64(rng.Intn(2))-0.5) },
		func() float64 { return []float64{math.Inf(1), math.Inf(-1), rng.Norm()}[rng.Intn(3)] },
		func() float64 { return float64(rng.Intn(64)-32) * 5e-324 }, // subnormals
		func() float64 { return rng.Norm() },
	}
	for i, p := range []int{1, 2, 255, 256, 257, radixSortMin, 4096} {
		gen := shapes[i%len(shapes)]
		scores := make([]float64, 0, 2*p+3)
		labels := make([]bool, 0, 2*p+3)
		for j := 0; j < 2*p+3; j++ {
			scores = append(scores, gen())
			labels = append(labels, j%2 == 0 && len(labels)/2 < p)
		}
		f.Add(aucFuzzBytes(scores, labels))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 9
		if n > 1<<13 {
			n = 1 << 13
		}
		scores := make([]float64, n)
		labels := make([]bool, n)
		nPos := 0
		for i := 0; i < n; i++ {
			s := math.Float64frombits(binary.LittleEndian.Uint64(data[i*9:]))
			if math.IsNaN(s) {
				s = 0
			}
			scores[i] = s
			labels[i] = data[i*9+8]&1 == 1
			if labels[i] {
				nPos++
			}
		}
		var k, legacy AUCKernel
		got := k.Compute(scores, labels)
		want := legacy.computeViaSort(scores, labels)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("counting kernel %v != sort kernel %v (n=%d, scores=%v, labels=%v)",
				got, want, n, scores, labels)
		}
		if n <= 256 {
			if pw := pairwiseAUC(scores, labels); math.Float64bits(got) != math.Float64bits(pw) {
				t.Fatalf("counting kernel %v != pairwise %v (n=%d, scores=%v, labels=%v)",
					got, pw, n, scores, labels)
			}
		}

		// Tiling the input r times multiplies the Mann-Whitney U and the
		// pair count both by r², so the AUC keeps its bits. Tiling small
		// inputs past radixSortMin positives drives the radix sort, and
		// the pooled counting pass once the negatives pass
		// parallelAUCMin, with the fuzzer's score patterns.
		if nPos == 0 || nPos >= radixSortMin {
			return
		}
		r := (radixSortMin + nPos - 1) / nPos
		if r*n > 1<<16 {
			return
		}
		tiledScores := make([]float64, 0, r*n)
		tiledLabels := make([]bool, 0, r*n)
		for range r {
			tiledScores = append(tiledScores, scores...)
			tiledLabels = append(tiledLabels, labels...)
		}
		pooled := AUCKernel{Pool: parallel.New(2)}
		if tiled := pooled.Compute(tiledScores, tiledLabels); math.Float64bits(tiled) != math.Float64bits(got) {
			t.Fatalf("input tiled %d times: %v != untiled %v (n=%d, scores=%v, labels=%v)",
				r, tiled, got, n, scores, labels)
		}
	})
}
