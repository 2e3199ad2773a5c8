package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestMeanSimple(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestSumKahan(t *testing.T) {
	// 1 + 1e-16 repeated: naive summation loses the small terms.
	xs := make([]float64, 0, 10001)
	xs = append(xs, 1)
	for i := 0; i < 10000; i++ {
		xs = append(xs, 1e-16)
	}
	got := Sum(xs)
	want := 1 + 1e-12
	if !almostEqual(got, want, 1e-15) {
		t.Fatalf("Sum = %.18f, want %.18f", got, want)
	}
}

func TestVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 denominator = 32/7.
	if got, want := Variance(xs), 32.0/7.0; !almostEqual(got, want, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	if Variance([]float64{5}) != 0 {
		t.Fatal("Variance of single element must be 0")
	}
	if Variance(nil) != 0 {
		t.Fatal("Variance of empty must be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 {
		t.Fatalf("Min = %v", Min(xs))
	}
	if Max(xs) != 7 {
		t.Fatalf("Max = %v", Max(xs))
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Min(nil) did not panic")
		}
	}()
	Min(nil)
}

func TestQuantileEndpointsAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Quantile(xs, 0) != 1 {
		t.Fatal("q0 must be min")
	}
	if Quantile(xs, 1) != 5 {
		t.Fatal("q1 must be max")
	}
	if Median(xs) != 3 {
		t.Fatal("median of 1..5 must be 3")
	}
	// Even-length interpolation.
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	_ = Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Quantile mutated input: %v", xs)
	}
}

func TestQuantileCuts(t *testing.T) {
	// Indices int(i/4 * 8) for i = 1..3 pick s[2], s[4], s[6] of the
	// sorted values 1 2 3 3 3 5 7 8 9: 3, 3 and 7, the repeat dropped.
	xs := []float64{9, 3, 1, 3, 7, 3, 5, 2, 8}
	got := QuantileCuts(xs, 3)
	if want := []float64{3, 7}; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("QuantileCuts = %v, want %v", got, want)
	}
	if !sort.Float64sAreSorted(xs) {
		t.Fatalf("QuantileCuts left its buffer unsorted: %v", xs)
	}
}

func TestQuantilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(q=2) did not panic")
		}
	}()
	Quantile([]float64{1}, 2)
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("unexpected summary %+v", s)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summary must be zero")
	}
	if s.String() == "" {
		t.Fatal("String must be non-empty")
	}
}

func TestPearsonPerfectAndAnti(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if got := Pearson(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", got)
	}
	zs := []float64{8, 6, 4, 2}
	if got := Pearson(xs, zs); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", got)
	}
	if Pearson(xs, []float64{1, 1, 1, 1}) != 0 {
		t.Fatal("Pearson with constant input must be 0")
	}
	if Pearson(xs, xs[:2]) != 0 {
		t.Fatal("Pearson with mismatched lengths must be 0")
	}
}

func TestRanksWithTies(t *testing.T) {
	xs := []float64{10, 20, 20, 30}
	got := Ranks(xs)
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestSpearmanMonotone(t *testing.T) {
	xs := []float64{1, 5, 2, 9}
	ys := []float64{10, 500, 20, 900} // monotone transform of xs
	if got := Spearman(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("Spearman = %v, want 1", got)
	}
}

// Property: ranks are a permutation-of-averages whose sum equals n(n+1)/2.
func TestRanksSumProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		r := Ranks(xs)
		n := float64(len(xs))
		return almostEqual(Sum(r), n*(n+1)/2, 1e-6*n*n+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Quantile is monotone in q and bounded by [min, max].
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		clamp := func(q float64) float64 {
			q = math.Abs(math.Mod(q, 1))
			return q
		}
		a, b := clamp(q1), clamp(q2)
		if a > b {
			a, b = b, a
		}
		qa, qb := Quantile(xs, a), Quantile(xs, b)
		return qa <= qb && qa >= Min(xs) && qb <= Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: variance is translation invariant.
func TestVarianceTranslationProperty(t *testing.T) {
	f := func(raw []float64, shiftRaw float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.Abs(v) < 1e6 && !math.IsNaN(v) {
				xs = append(xs, v)
			}
		}
		if len(xs) < 2 {
			return true
		}
		shift := math.Mod(shiftRaw, 100)
		if math.IsNaN(shift) {
			shift = 0
		}
		shifted := make([]float64, len(xs))
		for i, v := range xs {
			shifted[i] = v + shift
		}
		v1, v2 := Variance(xs), Variance(shifted)
		scale := math.Max(1, math.Abs(v1))
		return almostEqual(v1, v2, 1e-6*scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRanksMatchSortOrder(t *testing.T) {
	xs := []float64{0.3, 0.1, 0.9, 0.5}
	r := Ranks(xs)
	type pair struct{ x, rank float64 }
	ps := make([]pair, len(xs))
	for i := range xs {
		ps[i] = pair{xs[i], r[i]}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].x < ps[j].x })
	for i := 1; i < len(ps); i++ {
		if ps[i].rank <= ps[i-1].rank {
			t.Fatalf("ranks not increasing with value: %+v", ps)
		}
	}
}
