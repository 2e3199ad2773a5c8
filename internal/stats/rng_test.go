package stats

import (
	"math"
	"slices"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give identical streams")
		}
	}
	c := NewRNG(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(42).Int63() != c.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child1 := parent.Split()
	child2 := parent.Split()
	if child1.Int63() == child2.Int63() {
		// A single collision is possible but astronomically unlikely.
		if child1.Int63() == child2.Int63() {
			t.Fatal("split streams appear identical")
		}
	}
	// Splitting must be reproducible from the parent seed.
	p2 := NewRNG(7)
	c1 := p2.Split()
	r1 := NewRNG(7).Split()
	if c1.Int63() != r1.Int63() {
		t.Fatal("split is not deterministic")
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(2)
	n := 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = g.Normal(3, 2)
	}
	if m := Mean(xs); math.Abs(m-3) > 0.05 {
		t.Fatalf("normal mean %v too far from 3", m)
	}
	if sd := StdDev(xs); math.Abs(sd-2) > 0.05 {
		t.Fatalf("normal sd %v too far from 2", sd)
	}
}

func TestExpMean(t *testing.T) {
	g := NewRNG(3)
	n := 200000
	s := 0.0
	for i := 0; i < n; i++ {
		v := g.Exp(2)
		if v < 0 {
			t.Fatal("exponential variate must be non-negative")
		}
		s += v
	}
	if m := s / float64(n); math.Abs(m-0.5) > 0.01 {
		t.Fatalf("exp mean %v too far from 0.5", m)
	}
}

func TestBernoulliEdges(t *testing.T) {
	g := NewRNG(5)
	for i := 0; i < 100; i++ {
		if g.Bernoulli(0) {
			t.Fatal("Bernoulli(0) must be false")
		}
		if !g.Bernoulli(1) {
			t.Fatal("Bernoulli(1) must be true")
		}
		if g.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(p<0) must be false")
		}
	}
	// Frequency check.
	hits := 0
	n := 100000
	for i := 0; i < n; i++ {
		if g.Bernoulli(0.3) {
			hits++
		}
	}
	if f := float64(hits) / float64(n); math.Abs(f-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency %v", f)
	}
}

func TestPoissonMeanSmallAndLarge(t *testing.T) {
	g := NewRNG(6)
	for _, mean := range []float64{0.05, 0.7, 4, 50} {
		n := 50000
		s := 0
		for i := 0; i < n; i++ {
			s += g.Poisson(mean)
		}
		got := float64(s) / float64(n)
		tol := 0.05 * math.Max(mean, 1)
		if math.Abs(got-mean) > tol {
			t.Fatalf("Poisson(%v) sample mean %v", mean, got)
		}
	}
	if g.Poisson(0) != 0 || g.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive mean must be 0")
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	g := NewRNG(7)
	w := []float64{1, 3, 6}
	counts := make([]int, 3)
	n := 120000
	for i := 0; i < n; i++ {
		counts[g.Categorical(w)]++
	}
	for i, want := range []float64{0.1, 0.3, 0.6} {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("category %d frequency %v, want %v", i, got, want)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	g := NewRNG(8)
	for _, w := range [][]float64{nil, {}, {0, 0}, {1, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Categorical(%v) did not panic", w)
				}
			}()
			g.Categorical(w)
		}()
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	g := NewRNG(9)
	got := g.SampleWithoutReplacement(10, 4)
	if len(got) != 4 {
		t.Fatalf("want 4 samples, got %d", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Fatalf("index %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate index %d", v)
		}
		seen[v] = true
	}
	// k >= n returns all indices.
	all := g.SampleWithoutReplacement(5, 50)
	if len(all) != 5 {
		t.Fatalf("k>=n must return n indices, got %d", len(all))
	}
}

// sampleOracle is SampleWithoutReplacement as it was before Sampler: a
// fresh index array per draw, math/rand's Perm when k >= n.
func sampleOracle(g *RNG, n, k int) []int {
	if k >= n {
		return g.r.Perm(n)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + g.r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// TestSamplerMatchesOracle: one Sampler, reused across a grid of (n, k)
// that covers the empty, single, all-but-one, full-permutation and
// oversized draws, returns exactly the oracle's indices for 50
// consecutive draws per cell and leaves the generator where the oracle
// leaves it.
func TestSamplerMatchesOracle(t *testing.T) {
	var s Sampler
	for _, n := range []int{1, 2, 3, 10, 257, 4000} {
		for _, k := range []int{0, 1, n - 1, n, n + 5} {
			g, want := NewRNG(int64(31*n+k)), NewRNG(int64(31*n+k))
			for d := 0; d < 50; d++ {
				got, exp := s.Sample(g, n, k), sampleOracle(want, n, k)
				if !slices.Equal(got, exp) {
					t.Fatalf("n=%d k=%d draw %d: sampler %v, oracle %v", n, k, d, got, exp)
				}
			}
			if a, b := g.Int63(), want.Int63(); a != b {
				t.Fatalf("n=%d k=%d: generators diverged (%d vs %d)", n, k, a, b)
			}
		}
	}
}

// TestSamplerMixedSizes interleaves sizes on one Sampler, so every draw
// starts from the undo of a differently shaped one.
func TestSamplerMixedSizes(t *testing.T) {
	var s Sampler
	shape := NewRNG(5)
	g, want := NewRNG(6), NewRNG(6)
	for d := 0; d < 500; d++ {
		n := 1 + shape.Intn(300)
		k := shape.Intn(n + 10)
		if got, exp := s.Sample(g, n, k), sampleOracle(want, n, k); !slices.Equal(got, exp) {
			t.Fatalf("draw %d (n=%d k=%d): sampler %v, oracle %v", d, n, k, got, exp)
		}
	}
	if g.Int63() != want.Int63() {
		t.Fatal("generators diverged")
	}
}

// TestSamplerZeroAlloc: once warm, a draw allocates nothing.
func TestSamplerZeroAlloc(t *testing.T) {
	var s Sampler
	g := NewRNG(8)
	s.Sample(g, 5000, 400)
	if allocs := testing.AllocsPerRun(50, func() { s.Sample(g, 5000, 400) }); allocs != 0 {
		t.Fatalf("warm Sample allocates %v per draw, want 0", allocs)
	}
}

func TestLogNormalPositive(t *testing.T) {
	g := NewRNG(10)
	for i := 0; i < 1000; i++ {
		if g.LogNormal(0, 1) <= 0 {
			t.Fatal("lognormal must be positive")
		}
	}
}
