package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/feature"
	"repro/internal/stats"
)

// perCutRankBoost is the oracle for RankBoost's binned stump scan: the
// per-cut scan it replaced, serial and unoptimized. For every cut it
// walks the positives, then the negatives, comparing each value against
// the cut.
func perCutRankBoost(train *feature.Set, rounds, thresholds int) []stump {
	pos, neg := splitByLabel(train)
	dim := train.Dim()
	cuts := make([][]float64, dim)
	vals := make([]float64, train.Len())
	for j := range cuts {
		for i := range vals {
			vals[i] = train.Row(i, nil)[j]
		}
		cuts[j] = stats.QuantileCuts(vals, thresholds)
	}
	vPos := make([]float64, len(pos))
	vNeg := make([]float64, len(neg))
	for i := range vPos {
		vPos[i] = 1 / float64(len(pos))
	}
	for j := range vNeg {
		vNeg[j] = 1 / float64(len(neg))
	}
	var stumps []stump
	for round := 0; round < rounds; round++ {
		best, bestR := stump{}, 0.0
		for j := 0; j < dim; j++ {
			fbR, fbSt := 0.0, stump{}
			for _, c := range cuts[j] {
				r := 0.0
				for k, i := range pos {
					if train.Row(i, nil)[j] > c {
						r += vPos[k]
					}
				}
				for k, i := range neg {
					if train.Row(i, nil)[j] > c {
						r -= vNeg[k]
					}
				}
				if math.Abs(r) > math.Abs(fbR) {
					fbR = r
					fbSt = stump{FeatureIdx: j, Threshold: c, Inverted: r < 0}
				}
			}
			if math.Abs(fbR) > math.Abs(bestR) {
				bestR, best = fbR, fbSt
			}
		}
		absR := math.Abs(bestR)
		if absR < 1e-9 || absR >= 1 {
			if absR >= 1 {
				best.Alpha = 4
				stumps = append(stumps, best)
			}
			break
		}
		best.Alpha = 0.5 * math.Log((1+absR)/(1-absR))
		stumps = append(stumps, best)
		for k, i := range pos {
			vPos[k] *= math.Exp(-best.Alpha * best.eval(train.Row(i, nil)))
		}
		for k, i := range neg {
			vNeg[k] *= math.Exp(best.Alpha * best.eval(train.Row(i, nil)))
		}
		normalize(vPos)
		normalize(vNeg)
	}
	return stumps
}

// tieHeavySet has one-hot columns (values sit exactly on the 0 and 1
// cuts), a small-integer column with many ties, a constant column, a
// column that is mostly NaN (so its leading cuts are NaN) and an all-NaN
// column (no cut survives).
func tieHeavySet(seed int64, n int) *feature.Set {
	rng := stats.NewRNG(seed)
	s := feature.NewDense([]string{"a", "b", "c", "int", "const", "nan", "allnan"}, n, 7)
	for i := 0; i < n; i++ {
		pos := rng.Bernoulli(0.1)
		row := s.Row(i, nil)
		cat := rng.Intn(3)
		if pos && rng.Bernoulli(0.5) {
			cat = 0
		}
		row[cat] = 1
		row[3] = float64(rng.Intn(5))
		if pos {
			row[3] += float64(rng.Intn(2))
		}
		row[4] = 2.5
		row[5] = math.NaN()
		if rng.Bernoulli(0.3) {
			row[5] = rng.Norm()
			if pos {
				row[5]++
			}
		}
		row[6] = math.NaN()
		s.Label[i] = pos
		s.Age[i] = 10
		s.LengthM[i] = 100
		s.PipeIdx[i] = i
	}
	return s
}

// TestRankBoostMatchesPerCutScan holds the binned stump scan to the
// per-cut oracle: the same stumps (compared with ==, so thresholds and
// alphas match bit for bit) and bitwise-equal scores.
func TestRankBoostMatchesPerCutScan(t *testing.T) {
	cases := []struct {
		name       string
		set        *feature.Set
		rounds     int
		thresholds int
	}{
		{"gaussian", gaussianSet(51, 900, 0.05, 1.2, 12), 60, 16},
		{"tie-heavy", tieHeavySet(53, 800), 40, 16},
		{"thresholds-over-distinct", tieHeavySet(54, 600), 30, maxCuts},
		{"many-cuts", gaussianSet(55, 700, 0.1, 1, 4), 30, 200},
	}
	for _, tc := range cases {
		want := perCutRankBoost(tc.set, tc.rounds, tc.thresholds)
		if len(want) == 0 {
			t.Fatalf("%s: oracle fitted no stump", tc.name)
		}
		for _, workers := range []int{1, 0} {
			m := NewRankBoost(RankBoostConfig{Rounds: tc.rounds, Thresholds: tc.thresholds, Workers: workers})
			if err := m.Fit(tc.set); err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if len(m.stumps) != len(want) {
				t.Fatalf("%s workers=%d: %d stumps, oracle %d", tc.name, workers, len(m.stumps), len(want))
			}
			for i, st := range m.stumps {
				if st != want[i] {
					t.Fatalf("%s workers=%d: stump %d = %+v, oracle %+v", tc.name, workers, i, st, want[i])
				}
			}
			scores, err := m.Scores(tc.set)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			for i := range scores {
				x, s := tc.set.Row(i, nil), 0.0
				for _, st := range want {
					s += st.Alpha * st.eval(x)
				}
				if math.Float64bits(scores[i]) != math.Float64bits(s) {
					t.Fatalf("%s workers=%d: score[%d] = %v, oracle %v", tc.name, workers, i, scores[i], s)
				}
			}
		}
	}
}

// TestRankBoostScoresChecksDim: a set narrower or wider than the fitted
// one must be refused, not scored on the wrong columns or panic in a
// scoring worker.
func TestRankBoostScoresChecksDim(t *testing.T) {
	m := NewRankBoost(RankBoostConfig{Rounds: 10, Workers: 1})
	if err := m.Fit(gaussianSet(57, 300, 0.2, 2, 3)); err != nil {
		t.Fatal(err)
	}
	for _, dim := range []int{1, 5} {
		_, err := m.Scores(gaussianSet(58, 20, 0.2, 2, dim))
		if err == nil || !strings.Contains(err.Error(), "test dim") {
			t.Fatalf("dim %d: err = %v", dim, err)
		}
	}
}
