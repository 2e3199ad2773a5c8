// Package linalg provides the small dense linear-algebra kernel the model
// fitters need: vector arithmetic, dense matrices, and a Cholesky solver for
// the Newton steps of the logistic and Cox regressions.
//
// It is deliberately minimal — no BLAS, no sparse formats — because every
// design matrix in this repository is tall and thin (tens of thousands of
// rows, a few dozen columns).
package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. The loop is 4-way unrolled
// into a *single* accumulator, so the summation order is exactly the
// sequential left-to-right order and results are bit-identical to a
// naive loop (and to MatVec, which preserves the same per-row order).
// The unroll buys hoisted bounds checks, not a reassociated sum —
// keeping every Dot-based score reproducible regardless of which kernel
// ran it. It panics on length mismatch, which always indicates a schema
// bug rather than a data condition.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	b = b[:len(a)]
	s := 0.0
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s += a[i] * b[i]
		s += a[i+1] * b[i+1]
		s += a[i+2] * b[i+2]
		s += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// MatVec computes the matrix-vector product of a row-major flat matrix
// against x: dst[i] = dot(flat[i*stride:(i+1)*stride], x). It is the
// scoring kernel of the train/serve hot path — one contiguous streaming
// pass over the backing array with no per-row slice-header loads. Rows
// are processed in blocks of four that share one streaming pass over x,
// but each row still owns a single accumulator fed in sequential element
// order — the blocking reuses x loads across rows without reassociating
// any row's sum, so every dst[i] is bit-identical to Dot of that row (the
// kerneltest harness pins this against the naive oracle). It panics when
// len(x) != stride or len(flat) != len(dst)*stride.
func MatVec(dst, flat []float64, stride int, x []float64) {
	checkMatVec(dst, flat, stride, x)
	r := 0
	for ; r+4 <= len(dst); r += 4 {
		base := r * stride
		r0 := flat[base : base+stride][:len(x)]
		r1 := flat[base+stride : base+2*stride][:len(x)]
		r2 := flat[base+2*stride : base+3*stride][:len(x)]
		r3 := flat[base+3*stride : base+4*stride][:len(x)]
		var s0, s1, s2, s3 float64
		for j, xv := range x {
			s0 += r0[j] * xv
			s1 += r1[j] * xv
			s2 += r2[j] * xv
			s3 += r3[j] * xv
		}
		dst[r], dst[r+1], dst[r+2], dst[r+3] = s0, s1, s2, s3
	}
	for ; r < len(dst); r++ {
		dst[r] = Dot(flat[r*stride:(r+1)*stride], x)
	}
}

// checkMatVec validates the MatVec shape contract.
func checkMatVec(dst, flat []float64, stride int, x []float64) {
	if len(x) != stride {
		panic(fmt.Sprintf("linalg: MatVec stride %d vs vector length %d", stride, len(x)))
	}
	if len(flat) != len(dst)*stride {
		panic(fmt.Sprintf("linalg: MatVec flat length %d != %d rows x stride %d", len(flat), len(dst), stride))
	}
}

// Axpy computes y += alpha*x in place. It panics on length mismatch.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// NormInf returns the maximum absolute component of x (0 for empty x).
func NormInf(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Clone returns a copy of x.
func Clone(x []float64) []float64 {
	return append([]float64(nil), x...)
}

// Add returns a+b as a new vector. It panics on length mismatch.
func Add(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Add length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Sub returns a-b as a new vector. It panics on length mismatch.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Sub length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}
