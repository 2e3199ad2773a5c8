// Package stats provides the statistical substrate for the pipefail library:
// seeded random number generation, descriptive statistics, probability
// distributions, special functions, quantiles and hypothesis tests.
//
// Every stochastic component in the repository draws randomness through this
// package so that experiments are reproducible from a single seed.
package stats

import (
	"math"
	"math/rand"
)

// RNG is a seeded source of randomness used across the library.
// It wraps math/rand with a few extra samplers (exponential, lognormal,
// Poisson, categorical) that the synthetic data generator and the
// evolutionary optimizer need.
//
// RNG is not safe for concurrent use; derive independent streams with Split.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Split derives a new independent generator from the current one.
// The derived stream is a pure function of the parent's state, so a fixed
// seed still yields a fully reproducible tree of streams.
func (g *RNG) Split() *RNG {
	return NewRNG(g.r.Int63())
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uniform returns a uniform float64 in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Norm returns a standard normal variate.
func (g *RNG) Norm() float64 { return g.r.NormFloat64() }

// Normal returns a normal variate with the given mean and standard deviation.
func (g *RNG) Normal(mean, sd float64) float64 {
	return mean + sd*g.r.NormFloat64()
}

// LogNormal returns a lognormal variate where the underlying normal has the
// given mu and sigma.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// Exp returns an exponential variate with the given rate (rate > 0).
func (g *RNG) Exp(rate float64) float64 {
	// Inverse CDF; 1-U avoids log(0).
	return -math.Log(1-g.r.Float64()) / rate
}

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Poisson returns a Poisson variate with the given mean.
// It uses Knuth's method for small means and a normal approximation with
// rejection clamping for large ones, which is accurate enough for workload
// generation (mean < 1 in all uses inside this repository).
func (g *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= g.r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	// Normal approximation for large means.
	v := g.Normal(mean, math.Sqrt(mean))
	if v < 0 {
		return 0
	}
	return int(v + 0.5)
}

// Categorical draws an index from the (unnormalized, non-negative) weights.
// It panics if weights is empty or sums to a non-positive value, because a
// malformed preset table is a programming error, not a runtime condition.
func (g *RNG) Categorical(weights []float64) int {
	if len(weights) == 0 {
		panic("stats: Categorical with no weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("stats: Categorical with negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("stats: Categorical weights sum to zero")
	}
	u := g.r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Perm returns a pseudo-random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomizes the order of elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n). If k >= n it returns a random permutation of all n indices.
// The result is in random order. It is a one-shot Sampler draw; callers
// that draw repeatedly keep a Sampler instead.
func (g *RNG) SampleWithoutReplacement(n, k int) []int {
	var s Sampler
	return s.Sample(g, n, k)
}

// Sampler draws without replacement like SampleWithoutReplacement — the
// same Intn calls, the same indices in the same order — but keeps its
// index array between draws. A draw is a partial Fisher-Yates over an
// identity array; the next draw first undoes its k swaps in reverse order,
// so a warm draw costs O(k) and allocates nothing. The zero value is ready
// to use. A Sampler is not safe for concurrent use.
type Sampler struct {
	idx   []int // the identity permutation, save for the last draw's swaps
	swaps []int // swaps[i] is the partner of position i in the last draw
	perm  int   // the last draw permuted idx[:perm] in full
}

// Sample returns k distinct indices from [0, n), drawn from g. If k >= n
// it returns a random permutation of all n indices, as math/rand's Perm
// would. The result is owned by the Sampler and valid until its next
// Sample call.
func (s *Sampler) Sample(g *RNG, n, k int) []int {
	s.restore()
	if n > len(s.idx) {
		s.idx = make([]int, n)
		for i := range s.idx {
			s.idx[i] = i
		}
	}
	idx := s.idx[:n:n]
	if k >= n {
		// math/rand's Perm, written in place of the identity.
		for i := range idx {
			j := g.r.Intn(i + 1)
			idx[i] = idx[j]
			idx[j] = i
		}
		s.perm = n
		return idx
	}
	if cap(s.swaps) < k {
		s.swaps = make([]int, 0, k)
	}
	for i := 0; i < k; i++ {
		j := i + g.r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		s.swaps = append(s.swaps, j)
	}
	return idx[:k:k]
}

// restore returns idx to the identity permutation.
func (s *Sampler) restore() {
	for i := 0; i < s.perm; i++ {
		s.idx[i] = i
	}
	s.perm = 0
	for i := len(s.swaps) - 1; i >= 0; i-- {
		j := s.swaps[i]
		s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
	}
	s.swaps = s.swaps[:0]
}
