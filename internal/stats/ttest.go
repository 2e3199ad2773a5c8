package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrInsufficientData is returned by hypothesis tests when too few paired
// observations are supplied to compute a test statistic.
var ErrInsufficientData = errors.New("stats: insufficient data for test")

// TTestResult holds the outcome of a paired t-test. The paper reports the
// statistic alongside whether p < 0.05, so both are exposed.
type TTestResult struct {
	T           float64 // test statistic
	DF          float64 // degrees of freedom (n-1)
	P           float64 // p-value under the configured alternative
	MeanDiff    float64 // mean of (x - y)
	Significant bool    // P < alpha at construction time
	Alpha       float64 // significance level the test was run at
}

// String renders the result the way the paper's significance tables do,
// e.g. "9.37 (<0.05)" or "2.56 (=0.08)".
func (r TTestResult) String() string {
	if r.Significant {
		return fmt.Sprintf("%.2f (<%.2g)", r.T, r.Alpha)
	}
	return fmt.Sprintf("%.2f (=%.2g)", r.T, r.P)
}

// Alternative selects the alternative hypothesis of a test.
type Alternative int

const (
	// Greater tests H1: mean(x-y) > 0 (one-sided), the paper's setting
	// when asking whether the proposed method beats a baseline.
	Greater Alternative = iota
	// Less tests H1: mean(x-y) < 0.
	Less
	// TwoSided tests H1: mean(x-y) != 0.
	TwoSided
)

// PairedTTest performs a paired t-test of xs against ys at level alpha.
// xs and ys must have equal length n >= 2. When every paired difference is
// exactly zero the statistic is defined as 0 with p = 1 (or 0.5 one-sided),
// mirroring the convention of common statistics packages.
func PairedTTest(xs, ys []float64, alt Alternative, alpha float64) (TTestResult, error) {
	if len(xs) != len(ys) {
		return TTestResult{}, fmt.Errorf("stats: paired t-test length mismatch %d vs %d", len(xs), len(ys))
	}
	n := len(xs)
	if n < 2 {
		return TTestResult{}, ErrInsufficientData
	}
	diffs := make([]float64, n)
	for i := range xs {
		diffs[i] = xs[i] - ys[i]
	}
	md := Mean(diffs)
	sd := StdDev(diffs)
	df := float64(n - 1)
	var t float64
	if sd == 0 {
		if md == 0 {
			t = 0
		} else if md > 0 {
			t = math.Inf(1)
		} else {
			t = math.Inf(-1)
		}
	} else {
		t = md / (sd / math.Sqrt(float64(n)))
	}
	var p float64
	switch alt {
	case Greater:
		p = 1 - studentCDFSafe(t, df)
	case Less:
		p = studentCDFSafe(t, df)
	case TwoSided:
		p = 2 * (1 - studentCDFSafe(math.Abs(t), df))
	default:
		return TTestResult{}, fmt.Errorf("stats: unknown alternative %d", alt)
	}
	if p > 1 {
		p = 1
	}
	return TTestResult{
		T: t, DF: df, P: p, MeanDiff: md,
		Significant: p < alpha, Alpha: alpha,
	}, nil
}

// studentCDFSafe extends StudentTCDF to infinite statistics.
func studentCDFSafe(t, df float64) float64 {
	switch {
	case math.IsInf(t, 1):
		return 1
	case math.IsInf(t, -1):
		return 0
	default:
		return StudentTCDF(t, df)
	}
}
