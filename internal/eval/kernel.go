package eval

// Ranking kernels shared by the evaluation harness, the serve layer and
// (via core) the ES training hot path. Two disciplines hold throughout:
//
//   - Scratch ownership: the kernel with reusable state (AUCKernel) is
//     NOT safe for concurrent use; each worker owns its own instance.
//     The stateless package functions (AUC, Order, TopK) allocate fresh
//     scratch per call and are safe anywhere.
//   - Deterministic ties: every sort that yields a permutation orders by
//     the (score, original index) composite key. The index tiebreak
//     makes the permutation unique, so the unstable pdqsort behind
//     slices.SortFunc yields the exact ordering a stable sort on scores
//     alone would — bit-identical results across Go versions, worker
//     counts and sort algorithms. The AUC kernel's positive side needs
//     no permutation: it sorts bare order-keys (radix sort for large
//     sides, pdqsort for small), whose ascending sequence is unique.

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/parallel"
)

// scoreIx pairs a score with its original row index — the composite sort
// key of every ranking kernel.
type scoreIx struct {
	s float64
	i int
}

// cmpScoreIxAsc orders ascending by score, ties by index. A top-level
// function, not a closure, so sorting captures no variables and performs
// no allocation.
func cmpScoreIxAsc(a, b scoreIx) int {
	if a.s < b.s {
		return -1
	}
	if a.s > b.s {
		return 1
	}
	return a.i - b.i
}

// cmpScoreIxDesc orders descending by score, ties by ascending index —
// the rank order every inspection list uses.
func cmpScoreIxDesc(a, b scoreIx) int {
	if a.s > b.s {
		return -1
	}
	if a.s < b.s {
		return 1
	}
	return a.i - b.i
}

// AUCKernel computes empirical AUCs with reusable scratch: after the
// first call at a given size, Compute performs zero allocations. One
// kernel per goroutine — the ES gives each fitness worker its own. The
// Pool field only fans *internal* loops; the kernel itself must still be
// owned by a single goroutine.
type AUCKernel struct {
	// Pool fans the negative-counting pass across workers with
	// per-worker integer count scratch. Counts are merged by integer
	// summation, so the result is bit-identical for any worker count,
	// including the zero value (fully serial). Small inputs stay serial
	// regardless, to keep goroutine overhead off the ES fitness path.
	Pool parallel.Pool

	buf []scoreIx // legacy sort scratch (NaN fallback path)

	posKey   []uint64     // order-keys of the positive-class scores
	radixTmp []uint64     // radix sort's ping-pong buffer, len(posKey)
	digits   *radixCounts // radix sort's per-digit histograms, made on first use
	negKey   []uint64     // order-keys of the negative-class scores
	valKey   []uint64     // distinct positive keys, ascending, sentinel-shifted: valKey[g+1] is group g
	posCnt   []int64      // positives per distinct value
	below    []int64      // per-worker strict-upper-bound buckets, W x (G+1)
	tied     []int64      // per-worker tie buckets, shifted like valKey, W x (G+1)
}

// floatOrdKey maps a non-NaN float64 to a uint64 whose unsigned order is
// the float order: positive floats get the sign bit set, negative floats
// are bitwise inverted. The map is injective on canonicalized inputs
// (-0 folded to +0), so key equality is float equality — the counting
// pass can run entirely on integer compares, which the compiler lowers
// to branchless SETcc/CMOV where float compares would emit data-dependent
// jumps.
func floatOrdKey(f float64) uint64 {
	b := math.Float64bits(f)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// parallelAUCMin is the negative-count below which the counting pass
// stays on the calling goroutine even when a Pool is configured:
// spawning workers costs more than binary-searching a few thousand
// values.
const parallelAUCMin = 8192

// Compute returns the empirical area under the ROC curve of scores
// against labels, using the rank-statistic formulation (ties counted
// half). Degenerate single-class or empty inputs return 0.5. It panics
// on length mismatch, which always indicates a schema bug rather than a
// data condition.
//
// The kernel is counting-rank based: it partitions the scores by class,
// orders only the positive side (failures are the rare class in every
// pipe-year set, so this is the small side) with a radix sort of its
// order-keys, and bucket-counts each negative against the distinct
// positive values with one binary search — a linear-time radix order
// plus O(N log P), instead of sorting all N+P scores. The rank walk
// then replays exactly the float operations of the classic
// sort-everything kernel: ranks and tie-group sizes are integers (exact
// in float64, so order-free), and the rankSum additions happen in the
// same ascending-group sequence, making the result bit-identical to the
// legacy kernel — the property internal/kerneltest pins against the
// stable-sort oracle. Inputs containing NaN fall back to the legacy sort
// path (NaN never orders, so no counting identity holds); real score
// vectors are NaN-free by dataset validation.
func (k *AUCKernel) Compute(scores []float64, labels []bool) float64 {
	if len(scores) != len(labels) {
		panic(fmt.Sprintf("eval: AUC length mismatch %d vs %d", len(scores), len(labels)))
	}
	n := len(scores)
	if n == 0 {
		return 0.5
	}

	// Partition by class, screening for NaN on the way. -0 is folded to
	// +0 (s + 0.0) so that float order/equality and key order/equality
	// coincide; the fold cannot change the result because the rank
	// statistic only ever compares scores and -0 == +0.
	if cap(k.posKey) < n {
		k.posKey = make([]uint64, 0, n)
	}
	if cap(k.negKey) < n {
		k.negKey = make([]uint64, 0, n)
	}
	posKey, negKey := k.posKey[:0], k.negKey[:0]
	for i, s := range scores {
		if math.IsNaN(s) {
			return k.computeViaSort(scores, labels)
		}
		key := floatOrdKey(s + 0.0)
		if labels[i] {
			posKey = append(posKey, key)
		} else {
			negKey = append(negKey, key)
		}
	}
	k.posKey, k.negKey = posKey, negKey
	P := len(posKey)
	if P == 0 || len(negKey) == 0 {
		return 0.5
	}

	// Order the positive keys and collapse them to distinct values with a
	// duplicated leading sentinel: valKey[g+1] is group g, and valKey[0]
	// repeats group 0 so the tie probe valKey[b] needs no b > 0 guard
	// (b == 0 implies the negative is strictly below group 0, which can
	// never equal its key). Key order is float order and key equality is
	// float equality, so the groups and counts are exactly those of
	// sorting the float scores.
	sorted := posKey
	if P < radixSortMin {
		slices.Sort(sorted)
	} else {
		if cap(k.radixTmp) < P {
			k.radixTmp = make([]uint64, P)
		}
		if k.digits == nil {
			k.digits = new(radixCounts)
		}
		sorted = radixSortKeys(posKey, k.radixTmp[:P], k.digits)
	}
	valKey, cnt := k.valKey[:0], k.posCnt[:0]
	if cap(valKey) < P+1 {
		valKey = make([]uint64, 0, P+1)
	}
	valKey = append(valKey, sorted[0])
	for i := 0; i < P; {
		j := i + 1
		for j < P && sorted[j] == sorted[i] {
			j++
		}
		valKey = append(valKey, sorted[i])
		cnt = append(cnt, int64(j-i))
		i = j
	}
	k.valKey, k.posCnt = valKey, cnt
	G := len(cnt)

	// Count negatives against the positive groups: below[b] buckets each
	// negative at its strict upper bound b (the number of group values at
	// or below it), so the prefix sum through g is exactly #neg < val[g];
	// tied[g+1] counts exact ties with group g. Each worker owns disjoint
	// count slabs and the merge is integer addition, so any worker count
	// yields bit-identical totals.
	pool := k.Pool
	if len(negKey) < parallelAUCMin {
		pool = parallel.Pool{}
	}
	w := pool.Workers()
	slab := G + 1
	if need := w * slab; cap(k.below) < need {
		k.below = make([]int64, need)
		k.tied = make([]int64, need)
	} else {
		k.below = k.below[:need]
		clear(k.below)
		k.tied = k.tied[:need]
		clear(k.tied)
	}
	below, tied := k.below, k.tied
	if w == 1 {
		// Inline serial pass: a closure handed to Run would escape and
		// cost one allocation per Compute, which the zero-alloc gate on
		// the ES fitness path forbids.
		countNegatives(below, tied, valKey, negKey)
	} else {
		pool.Run(len(negKey), func(worker, lo, hi int) {
			countNegatives(
				below[worker*slab:(worker+1)*slab],
				tied[worker*slab:(worker+1)*slab],
				valKey, negKey[lo:hi])
		})
	}

	// Rank walk over the positive groups in ascending order. rank, group
	// sizes and the tie averages are all integer-valued (exact in
	// float64), and rankSum receives the same addition sequence as the
	// sort-based kernel: per positive group, its average rank added once
	// per positive member.
	var rankSum float64
	var negLess, posBefore int64
	for g := 0; g < G; g++ {
		var eq int64
		for wk := 0; wk < w; wk++ {
			negLess += below[wk*slab+g]
			eq += tied[wk*slab+g+1]
		}
		rank := float64(1 + posBefore + negLess)
		size := cnt[g] + eq
		avg := (rank + rank + float64(size-1)) / 2
		for t := int64(0); t < cnt[g]; t++ {
			rankSum += avg
		}
		posBefore += cnt[g]
	}
	nPos, nNeg := float64(P), float64(len(negKey))
	return (rankSum - nPos*(nPos+1)/2) / (nPos * nNeg)
}

// radixSortMin is the positive count from which Compute orders the
// positive keys by radix sort instead of pdqsort. The radix sort pays a
// fixed ~4 µs (eight 256-bucket histograms to clear and prefix-sum)
// whatever the size; on the 2-vCPU host, sorting keys of normally
// distributed scores took 20 vs 21 µs (radix vs pdqsort) at 1,000 keys,
// 26 vs 41 µs at 1,500 and 0.10 vs 0.26 ms at 3,461 — the positive side
// of a full-scale region-A fitness batch — but 5 vs 0.8 µs at 64.
const radixSortMin = 1024

// radixCounts holds one 256-bucket histogram per byte of a uint64 key.
type radixCounts [8][256]uint32

// radixSortKeys sorts keys ascending with a stable least-significant-
// digit radix sort over 8-bit digits, ping-ponging between keys and tmp
// (same length); it returns whichever of the two holds the result. One
// read pass fills all eight digit histograms, and a pass whose digit is
// the same for every key is skipped, so all-equal keys cost no pass and
// scores of one sign and a narrow range skip their shared top digits.
// Sorting plain keys, not (key, index) pairs, leaves nothing for a tie
// order to decide, so the output is the unique ascending sequence.
func radixSortKeys(keys, tmp []uint64, cnt *radixCounts) []uint64 {
	clear(cnt[:])
	for _, k := range keys {
		cnt[0][byte(k)]++
		cnt[1][byte(k>>8)]++
		cnt[2][byte(k>>16)]++
		cnt[3][byte(k>>24)]++
		cnt[4][byte(k>>32)]++
		cnt[5][byte(k>>40)]++
		cnt[6][byte(k>>48)]++
		cnt[7][byte(k>>56)]++
	}
	n := uint32(len(keys))
	src, dst := keys, tmp
	for d := range cnt {
		shift := uint(8 * d)
		c := &cnt[d]
		if c[byte(src[0]>>shift)] == n {
			continue
		}
		var sum uint32
		for i, v := range c {
			c[i] = sum
			sum += v
		}
		for _, k := range src {
			b := byte(k >> shift)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}

// countNegatives buckets each negative key at its strict upper bound b
// among the distinct positive keys (below, length G+1) and counts exact
// ties into the sentinel-shifted slot tied[b] (group b-1). valKey is the
// sentinel-shifted key array: valKey[1:] are the G ascending group keys
// and valKey[0] duplicates the first, so the tie probe valKey[b] is
// always in bounds and can never spuriously match at b == 0.
//
// Negatives are processed in blocks of four independent search lanes.
// Each lane runs the uniform-step branchless upper bound: the interval
// length sequence depends only on G, so all four lanes execute the same
// iteration count, and each step is a compare-to-mask (SETcc) plus a
// masked add — no data-dependent jump. That removes the ~log2(G) branch
// mispredicts per negative a classic binary search pays on random
// scores, and the four independent L1 load chains overlap instead of
// serializing — the same blocked multi-accumulator idea the linalg
// kernels use, applied to searches.
func countNegatives(below, tied []int64, valKey, negKey []uint64) {
	vk := valKey[1:]
	G := len(vk)
	i := 0
	for ; i+4 <= len(negKey); i += 4 {
		kx0, kx1, kx2, kx3 := negKey[i], negKey[i+1], negKey[i+2], negKey[i+3]
		var b0, b1, b2, b3 int
		for n := G; n > 1; n -= n >> 1 {
			half := n >> 1
			var c0, c1, c2, c3 int
			if vk[b0+half-1] <= kx0 {
				c0 = 1
			}
			if vk[b1+half-1] <= kx1 {
				c1 = 1
			}
			if vk[b2+half-1] <= kx2 {
				c2 = 1
			}
			if vk[b3+half-1] <= kx3 {
				c3 = 1
			}
			b0 += half & -c0
			b1 += half & -c1
			b2 += half & -c2
			b3 += half & -c3
		}
		var c0, c1, c2, c3 int
		if vk[b0] <= kx0 {
			c0 = 1
		}
		if vk[b1] <= kx1 {
			c1 = 1
		}
		if vk[b2] <= kx2 {
			c2 = 1
		}
		if vk[b3] <= kx3 {
			c3 = 1
		}
		b0 += c0
		b1 += c1
		b2 += c2
		b3 += c3
		below[b0]++
		below[b1]++
		below[b2]++
		below[b3]++
		var e0, e1, e2, e3 int64
		if valKey[b0] == kx0 {
			e0 = 1
		}
		if valKey[b1] == kx1 {
			e1 = 1
		}
		if valKey[b2] == kx2 {
			e2 = 1
		}
		if valKey[b3] == kx3 {
			e3 = 1
		}
		tied[b0] += e0
		tied[b1] += e1
		tied[b2] += e2
		tied[b3] += e3
	}
	for ; i < len(negKey); i++ {
		kx := negKey[i]
		b := 0
		for n := G; n > 1; n -= n >> 1 {
			half := n >> 1
			var c int
			if vk[b+half-1] <= kx {
				c = 1
			}
			b += half & -c
		}
		if vk[b] <= kx {
			b++
		}
		below[b]++
		if valKey[b] == kx {
			tied[b]++
		}
	}
}

// computeViaSort is the legacy sort-everything rank-statistic kernel:
// sort (score, index) pairs, walk tie groups, average ranks. It remains
// the NaN fallback and the in-package differential oracle for the
// counting kernel (FuzzAUCKernelVsNaive and the kerneltest harness pin
// Compute against it bit for bit on NaN-free inputs).
func (k *AUCKernel) computeViaSort(scores []float64, labels []bool) float64 {
	n := len(scores)
	if n == 0 {
		return 0.5
	}
	buf := k.buf
	if cap(buf) < n {
		buf = make([]scoreIx, n)
	}
	buf = buf[:n]
	for i, s := range scores {
		buf[i] = scoreIx{s, i}
	}
	slices.SortFunc(buf, cmpScoreIxAsc)
	k.buf = buf

	var nPos, nNeg, rankSum float64
	i := 0
	rank := 1.0
	for i < n {
		j := i
		for j+1 < n && buf[j+1].s == buf[i].s {
			j++
		}
		avg := (rank + rank + float64(j-i)) / 2
		for t := i; t <= j; t++ {
			if labels[buf[t].i] {
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

// Order returns indices sorted by score descending, ties by ascending
// index — the rank order every ranking and inspection list uses. One
// sort of the (score, index) pairs; the index tiebreak makes the
// permutation unique.
func Order(scores []float64) []int {
	buf := make([]scoreIx, len(scores))
	for i, s := range scores {
		buf[i] = scoreIx{s, i}
	}
	slices.SortFunc(buf, cmpScoreIxDesc)
	idx := make([]int, len(buf))
	for i, p := range buf {
		idx[i] = p.i
	}
	return idx
}

// TopK returns the indices of the k highest-scoring items in rank order
// (score descending, ties by ascending index): the first k of Order,
// with k clamped to [0, len(scores)].
func TopK(scores []float64, k int) []int {
	k = min(max(k, 0), len(scores))
	return Order(scores)[:k:k]
}
