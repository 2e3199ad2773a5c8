package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark names that percentile as a tail: fewer, and the "tail" is
// one or two unlucky samples.
const minBeyond = 10

// tailCandidates are the percentiles a tail may be reported at, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// rankOf is the nearest-rank index (1-based) of percentile p in n
// sorted samples.
func rankOf(p float64, n int) int {
	// The epsilon keeps float noise (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// tailPercentile picks the highest candidate percentile with at least
// minBeyond samples above it in n samples; ok is false when even the
// median has fewer.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailCandidates {
		if n-rankOf(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// dist is a sample set summarised the way the benchmark reports timings:
// median, and the highest percentile with enough samples beyond it.
type dist struct {
	N       int
	P50     float64
	TailP   float64 // the percentile Tail is reported at
	Tail    float64
	Max     float64
	HasTail bool
}

func summarize(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{N: len(s)}
	if len(s) == 0 {
		return d
	}
	d.P50 = percentile(s, 50)
	d.Max = s[len(s)-1]
	if p, ok := tailPercentile(len(s)); ok {
		d.TailP, d.Tail, d.HasTail = p, percentile(s, p), true
	}
	return d
}

func median(v []float64) float64 { return summarize(v).P50 }

// gatedTail is the percentile the end-to-end tail metrics are gated on,
// except on read-mix (readGatedTail).
// p99 swings with a handful of GC pauses or host hiccups per run; p90
// keeps hundreds of samples beyond it at the workloads' sizes. The
// highest percentile with ten samples beyond is still printed.
const gatedTail = 90

func p90(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, gatedTail)
}

// quartiles replicates Python's statistics.quantiles(data, n=4) with its
// default "exclusive" method, so the repeat mode computes the same
// spreads as anyone checking the results with Python.
func quartiles(data []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), data...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// pyMedian is Python's statistics.median: the mean of the two middle
// values for an even count.
func pyMedian(data []float64) float64 {
	s := append([]float64(nil), data...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the interquartile distance as a share of the median.
func spread(data []float64) float64 {
	q1, _, q3 := quartiles(data)
	med := pyMedian(data)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
