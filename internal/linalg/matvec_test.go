package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

// dotNaive is the pre-unroll reference implementation; the unrolled Dot
// must match it bit-for-bit because it preserves the sequential
// summation order (the contract flat-path vs row-path scoring relies on).
func dotNaive(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func TestDotBitIdenticalToNaive(t *testing.T) {
	f := func(raw []float64) bool {
		n := len(raw) / 2
		a, b := raw[:n], raw[n:2*n]
		for _, v := range raw {
			if math.IsNaN(v) || math.Abs(v) > 1e150 {
				return true // overflow to Inf/NaN makes == vacuous
			}
		}
		return Dot(a, b) == dotNaive(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Exercise every unroll remainder explicitly.
	for n := 0; n < 9; n++ {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = 0.1 * float64(i+1)
			b[i] = 1.0 / float64(i+3)
		}
		if Dot(a, b) != dotNaive(a, b) {
			t.Fatalf("n=%d: Dot diverges from sequential sum", n)
		}
	}
}

func TestMatVecMatchesRowDots(t *testing.T) {
	const rows, stride = 7, 5
	flat := make([]float64, rows*stride)
	for i := range flat {
		flat[i] = float64(i%11) - 4.5
	}
	x := []float64{1, -2, 0.5, 3, -0.25}
	dst := make([]float64, rows)
	MatVec(dst, flat, stride, x)
	for i := 0; i < rows; i++ {
		if want := Dot(flat[i*stride:(i+1)*stride], x); dst[i] != want {
			t.Fatalf("row %d: MatVec %v != Dot %v", i, dst[i], want)
		}
	}
}

// TestDotEdgeLengths pins the degenerate shapes: zero-length vectors
// (empty sum is exactly 0), a single element (pure tail, no unrolled
// block), and one value straddling each side of the first block
// boundary.
func TestDotEdgeLengths(t *testing.T) {
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("empty Dot = %v, want 0", got)
	}
	if got := Dot([]float64{}, []float64{}); got != 0 {
		t.Fatalf("empty non-nil Dot = %v, want 0", got)
	}
	if got := Dot([]float64{-2.5}, []float64{4}); got != -10 {
		t.Fatalf("single-element Dot = %v, want -10", got)
	}
}

// TestMatVecRemainderLanes sweeps every row-count remainder of the 4-row
// blocking against every stride remainder of the 4-wide inner unroll
// (lengths ≡ 0..3 mod 4 at several block counts), demanding bit identity
// with per-row sequential dots. Values mix signs and irrational-ish
// magnitudes so a reassociated (wrong) tail would actually change bits.
func TestMatVecRemainderLanes(t *testing.T) {
	for rows := 0; rows <= 9; rows++ {
		for _, stride := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13} {
			flat := make([]float64, rows*stride)
			for i := range flat {
				flat[i] = math.Sin(float64(i)*0.7) * math.Pow(10, float64(i%7-3))
			}
			x := make([]float64, stride)
			for j := range x {
				x[j] = math.Cos(float64(j)*1.3) - 0.4
			}
			dst := make([]float64, rows)
			MatVec(dst, flat, stride, x)
			for r := 0; r < rows; r++ {
				if want := dotNaive(flat[r*stride:(r+1)*stride], x); dst[r] != want {
					t.Fatalf("rows=%d stride=%d row %d: MatVec %v != sequential %v",
						rows, stride, r, dst[r], want)
				}
			}
		}
	}
}

func TestMatVecPanics(t *testing.T) {
	flat := make([]float64, 6)
	dst := make([]float64, 2)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"bad vector", func() { MatVec(dst, flat, 3, []float64{1, 2}) }},
		{"bad flat", func() { MatVec(dst, flat[:5], 3, []float64{1, 2, 3}) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

func TestMatVecEmpty(t *testing.T) {
	// Zero rows is a no-op, not a panic.
	MatVec(nil, nil, 4, []float64{1, 2, 3, 4})
}

// BenchmarkMatVec measures the flat scoring kernel at fitness-batch shape
// (20k rows x 32 features) — compare against the pre-flat row-pointer
// loop recorded in EXPERIMENTS.md.
func BenchmarkMatVec(b *testing.B) {
	const n, d = 20000, 32
	flat := make([]float64, n*d)
	for i := range flat {
		flat[i] = float64(i%7) * 0.25
	}
	x := make([]float64, d)
	for j := range x {
		x[j] = float64(j%3) - 1
	}
	out := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVec(out, flat, d, x)
	}
}

// BenchmarkDot measures the unrolled dot product at feature-vector width.
func BenchmarkDot(b *testing.B) {
	const d = 32
	x := make([]float64, d)
	y := make([]float64, d)
	for j := range x {
		x[j] = float64(j%5) * 0.5
		y[j] = float64(j%3) - 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Dot(x, y)
	}
	_ = sink
}
