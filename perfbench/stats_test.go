package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, // 10 samples above the 9990th
		{9999, 99, true},    // 99.9 leaves only 9
		{1000, 99, true},    // exactly 10 beyond the 990th
		{999, 95, true},     // 99 leaves 9
		{200, 95, true},     // 10 beyond the 190th
		{199, 90, true},
		{100, 90, true},
		{40, 75, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-rankOf(p, c.n) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond", c.n, p, c.n-rankOf(p, c.n))
		}
	}
}

func TestSummarizeReportsNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(1000 - i) // 1..1000, reversed
	}
	d := summarize(s)
	if d.P50 != 500 || d.TailP != 99 || d.Tail != 990 || d.Max != 1000 || d.N != 1000 || !d.HasTail {
		t.Fatalf("summarize = %+v", d)
	}
	if d := summarize(s[:5]); d.HasTail || d.P50 != 998 {
		t.Fatalf("five samples: %+v", d)
	}
}

// The expected values come from Python's statistics.quantiles(data, n=4)
// and statistics.median, which the contract's spread check uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data       []float64
		q1, q2, q3 float64
		med        float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 5.5},
		{[]float64{3.1, 1.2, 9.9, 4.4}, 1.675, 3.75, 8.525, 3.75},
		{[]float64{5, 1, 4}, 1, 4, 5, 4},
		{[]float64{2.5, 2.5, 2.6, 2.4, 2.5, 2.7, 2.3, 2.5, 2.6, 2.4}, 2.4, 2.5, 2.6, 2.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.data)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v; want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := pyMedian(c.data); !near(m, c.med) {
			t.Errorf("pyMedian(%v) = %v; want %v", c.data, m, c.med)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
