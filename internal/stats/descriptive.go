package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs using Kahan compensation, which matters when the
// evaluation harness accumulates millions of small detection increments.
func Sum(xs []float64) float64 {
	s, c := 0.0, 0.0
	for _, x := range xs {
		y := x - c
		t := s + y
		c = (t - s) - y
		s = t
	}
	return s
}

// Variance returns the unbiased sample variance (n-1 denominator).
// It returns 0 when fewer than two observations are available.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the spreadsheet and NumPy
// default). It panics on an empty slice or a q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: Quantile q=%v out of [0,1]", q))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// QuantileCuts returns up to k distinct interior quantile cut points of
// xs: the order statistics at i/(k+1) of the way through, i = 1..k, with
// repeats dropped — the candidate split thresholds of the tree and
// stump learners. It sorts xs in place; callers pass a buffer they own.
func QuantileCuts(xs []float64, k int) []float64 {
	sort.Float64s(xs)
	var cuts []float64
	for i := 1; i <= k; i++ {
		q := float64(i) / float64(k+1)
		v := xs[int(q*float64(len(xs)-1))]
		if len(cuts) == 0 || v != cuts[len(cuts)-1] {
			cuts = append(cuts, v)
		}
	}
	return cuts
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Summary holds the five-number summary plus mean and standard deviation of
// a sample; it is what the dataset-statistics tables print.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Q25    float64
	Median float64
	Q75    float64
	Max    float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    Min(xs),
		Q25:    Quantile(xs, 0.25),
		Median: Median(xs),
		Q75:    Quantile(xs, 0.75),
		Max:    Max(xs),
	}
}

// String renders the summary as a single human-readable line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g q25=%.4g med=%.4g q75=%.4g max=%.4g",
		s.N, s.Mean, s.StdDev, s.Min, s.Q25, s.Median, s.Q75, s.Max)
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It returns 0 when either input is constant or the lengths differ.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Ranks returns the fractional ranks (1-based, ties averaged) of xs.
// This is the rank transform used by the AUC computation and by Spearman.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Spearman returns the Spearman rank correlation between xs and ys.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	return Pearson(Ranks(xs), Ranks(ys))
}
