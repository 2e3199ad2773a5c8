package baseline

import (
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/stats"
	"repro/internal/synthetic"
)

// trainTest builds a small synthetic region and its train/test feature sets
// once for the whole package test run.
var cachedTrain, cachedTest *feature.Set

func sets(t *testing.T) (*feature.Set, *feature.Set) {
	t.Helper()
	if cachedTrain != nil {
		return cachedTrain, cachedTest
	}
	cfg, err := synthetic.RegionA(77).Scaled(0.12)
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := synthetic.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	split, err := dataset.PaperSplit(net)
	if err != nil {
		t.Fatal(err)
	}
	b, err := feature.NewBuilder(net, feature.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cachedTrain, err = b.TrainSet(split)
	if err != nil {
		t.Fatal(err)
	}
	cachedTest, err = b.TestSet(split)
	if err != nil {
		t.Fatal(err)
	}
	return cachedTrain, cachedTest
}

// auc computes test AUC for a fitted model.
func auc(t *testing.T, m core.Model, train, test *feature.Set) float64 {
	t.Helper()
	if err := m.Fit(train); err != nil {
		t.Fatalf("%s fit: %v", m.Name(), err)
	}
	scores, err := m.Scores(test)
	if err != nil {
		t.Fatalf("%s scores: %v", m.Name(), err)
	}
	if len(scores) != test.Len() {
		t.Fatalf("%s: %d scores for %d rows", m.Name(), len(scores), test.Len())
	}
	return testAUC(scores, test.Label)
}

// testAUC is a reference AUC implementation (quadratic, test-only).
func testAUC(scores []float64, labels []bool) float64 {
	var wins, ties, pairs float64
	for i := range scores {
		if !labels[i] {
			continue
		}
		for j := range scores {
			if labels[j] {
				continue
			}
			pairs++
			switch {
			case scores[i] > scores[j]:
				wins++
			case scores[i] == scores[j]:
				ties++
			}
		}
	}
	if pairs == 0 {
		return 0.5
	}
	return (wins + ties/2) / pairs
}

func TestLogisticBeatsRandomAndIsCalibratedEnough(t *testing.T) {
	train, test := sets(t)
	m := NewLogistic(LogisticConfig{})
	a := auc(t, m, train, test)
	if a < 0.6 {
		t.Fatalf("logistic AUC = %v", a)
	}
	scores, err := m.Scores(test)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scores {
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("probability score %v out of range", s)
		}
	}
	// Mean predicted probability should be near the base rate.
	mean := stats.Mean(scores)
	base := float64(test.Positives()) / float64(test.Len())
	if mean < base/3 || mean > base*3 {
		t.Fatalf("mean prob %v vs base rate %v badly calibrated", mean, base)
	}
}

func TestLogisticSeparableSanity(t *testing.T) {
	// One informative feature; logistic must find it.
	rng := stats.NewRNG(5)
	s := feature.NewDense([]string{"f"}, 600, 1)
	for i := range s.Label {
		pos := rng.Bernoulli(0.3)
		v := rng.Norm()
		if pos {
			v += 3
		}
		s.Row(i, nil)[0] = v
		s.Label[i] = pos
		s.Age[i] = 1
		s.LengthM[i] = 1
		s.PipeIdx[i] = i
	}
	m := NewLogistic(LogisticConfig{})
	if err := m.Fit(s); err != nil {
		t.Fatal(err)
	}
	if m.W[0] <= 0.5 {
		t.Fatalf("coefficient %v should be clearly positive", m.W[0])
	}
	scores, err := m.Scores(s)
	if err != nil {
		t.Fatal(err)
	}
	if a := testAUC(scores, s.Label); a < 0.95 {
		t.Fatalf("separable AUC = %v", a)
	}
}

func TestLogisticErrors(t *testing.T) {
	m := NewLogistic(LogisticConfig{})
	if err := m.Fit(nil); err == nil {
		t.Fatal("nil train must error")
	}
	if _, err := m.Scores(&feature.Set{}); err == nil {
		t.Fatal("unfitted Scores must error")
	}
	train, _ := sets(t)
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	bad := feature.NewDense([]string{"x"}, 1, 1)
	if _, err := m.Scores(bad); err == nil {
		t.Fatal("dim mismatch must error")
	}
}

func TestCoxBeatsAgeHeuristic(t *testing.T) {
	train, test := sets(t)
	cox := auc(t, NewCox(CoxConfig{}), train, test)
	age := auc(t, NewHeuristic(ByAge, 1), train, test)
	if cox < 0.6 {
		t.Fatalf("Cox AUC = %v", cox)
	}
	if cox <= age-0.02 {
		t.Fatalf("Cox (%v) should not trail the bare age heuristic (%v)", cox, age)
	}
}

func TestCoxRecovefsCovariateSign(t *testing.T) {
	// Build survival-ish data where feature 0 doubles the hazard.
	rng := stats.NewRNG(9)
	var xs []float64
	var labels []bool
	var ages []float64
	var pipes []int
	for pipe := 0; pipe < 400; pipe++ {
		bad := rng.Bernoulli(0.5)
		x := 0.0
		if bad {
			x = 1
		}
		failed := false
		for year := 0; year < 8 && !failed; year++ {
			age := float64(20 + year)
			p := 0.02
			if bad {
				p = 0.08
			}
			failed = rng.Bernoulli(p)
			xs = append(xs, x)
			labels = append(labels, failed)
			ages = append(ages, age)
			pipes = append(pipes, pipe)
		}
	}
	s := feature.NewDense([]string{"bad"}, len(xs), 1)
	flat, _ := s.Flat()
	copy(flat, xs)
	copy(s.Label, labels)
	copy(s.Age, ages)
	copy(s.PipeIdx, pipes)
	m := NewCox(CoxConfig{})
	if err := m.Fit(s); err != nil {
		t.Fatal(err)
	}
	if m.Beta[0] <= 0.3 {
		t.Fatalf("Cox beta = %v, want clearly positive (true log HR = %v)", m.Beta[0], math.Log(4))
	}
}

func TestCoxErrors(t *testing.T) {
	m := NewCox(CoxConfig{})
	if err := m.Fit(nil); err == nil {
		t.Fatal("nil train must error")
	}
	if _, err := m.Scores(&feature.Set{}); err == nil {
		t.Fatal("unfitted Scores must error")
	}
	// No events.
	s := feature.NewDense([]string{"x"}, 10, 1)
	for i := range s.Label {
		s.Row(i, nil)[0] = 1
		s.Age[i] = float64(i)
		s.LengthM[i] = 1
		s.PipeIdx[i] = i
	}
	if err := m.Fit(s); err == nil {
		t.Fatal("no-event train must error")
	}
	for i := range s.Label {
		s.Label[i] = true
	}
	if err := m.Fit(s); err == nil {
		t.Fatal("all-event train must error")
	}
}

func TestWeibullFindsAging(t *testing.T) {
	train, test := sets(t)
	m := NewWeibullNHPP(WeibullConfig{})
	a := auc(t, m, train, test)
	if a < 0.58 {
		t.Fatalf("Weibull AUC = %v", a)
	}
	if m.Beta <= 1 {
		t.Fatalf("fitted shape %v should exceed 1 on an ageing network", m.Beta)
	}
	if m.Alpha <= 0 {
		t.Fatalf("alpha = %v", m.Alpha)
	}
}

func TestWeibullForecast(t *testing.T) {
	train, test := sets(t)
	m := NewWeibullNHPP(WeibullConfig{})
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(test, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(fc) != test.Len() {
		t.Fatalf("forecast rows %d", len(fc))
	}
	scores, err := m.Scores(test)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range fc {
		if len(row) != 5 {
			t.Fatalf("horizon %d", len(row))
		}
		// Year-1 forecast must equal the model's score.
		if math.Abs(row[0]-scores[i]) > 1e-12 {
			t.Fatalf("forecast[0] %v != score %v", row[0], scores[i])
		}
		// With fitted shape > 1, expected counts must not decrease.
		for h := 1; h < 5; h++ {
			if row[h] < row[h-1]-1e-12 {
				t.Fatalf("forecast not monotone for ageing process: %v", row)
			}
		}
	}
	if _, err := m.Forecast(test, 0); err == nil {
		t.Fatal("horizon 0 must error")
	}
	unfit := NewWeibullNHPP(WeibullConfig{})
	if _, err := unfit.Forecast(test, 3); err == nil {
		t.Fatal("unfitted forecast must error")
	}
}

func TestWeibullErrors(t *testing.T) {
	m := NewWeibullNHPP(WeibullConfig{})
	if err := m.Fit(nil); err == nil {
		t.Fatal("nil train must error")
	}
	if _, err := m.Scores(&feature.Set{}); err == nil {
		t.Fatal("unfitted Scores must error")
	}
}

func TestAgeBasisDerivative(t *testing.T) {
	// Finite-difference check of dg/dβ.
	for _, a := range []float64{0, 1, 7, 40} {
		for _, b := range []float64{0.8, 1, 2.3} {
			_, dg := ageBasis(a, b)
			const h = 1e-6
			g1, _ := ageBasis(a, b+h)
			g0, _ := ageBasis(a, b-h)
			fd := (g1 - g0) / (2 * h)
			if math.Abs(fd-dg) > 1e-4*(1+math.Abs(fd)) {
				t.Fatalf("dg/db mismatch at a=%v b=%v: analytic %v vs fd %v", a, b, dg, fd)
			}
		}
	}
}

func TestAgeRateModelsFitAndRank(t *testing.T) {
	train, test := sets(t)
	for _, form := range []AgeRateForm{TimeExponential, TimePower, TimeLinear} {
		m := NewAgeRateModel(form)
		a := auc(t, m, train, test)
		if a < 0.52 {
			t.Errorf("%s AUC = %v; should at least beat random", form, a)
		}
		// Rates must be non-negative everywhere.
		for age := 0.0; age < 120; age += 10 {
			if m.Rate(age) < 0 {
				t.Errorf("%s rate(%v) negative", form, age)
			}
		}
	}
}

func TestAgeRateIncreasesWithAgeOnAgingNetwork(t *testing.T) {
	train, _ := sets(t)
	m := NewAgeRateModel(TimeExponential)
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	if m.B <= 0 {
		t.Fatalf("time-exponential slope %v should be positive", m.B)
	}
	if m.Rate(80) <= m.Rate(10) {
		t.Fatal("rate must increase with age")
	}
}

func TestAgeRateErrors(t *testing.T) {
	m := NewAgeRateModel(TimeLinear)
	if err := m.Fit(nil); err == nil {
		t.Fatal("nil train must error")
	}
	if _, err := m.Scores(&feature.Set{}); err == nil {
		t.Fatal("unfitted Scores must error")
	}
	if NewAgeRateModel(AgeRateForm(99)).Name() == "" {
		t.Fatal("unknown form must still render a name")
	}
}

func TestHeuristics(t *testing.T) {
	train, test := sets(t)
	ageAUC := auc(t, NewHeuristic(ByAge, 0), train, test)
	if ageAUC < 0.52 {
		t.Fatalf("age heuristic AUC = %v; ageing network must reward age", ageAUC)
	}
	lenAUC := auc(t, NewHeuristic(ByLength, 0), train, test)
	if lenAUC < 0.52 {
		t.Fatalf("length heuristic AUC = %v", lenAUC)
	}
	randAUC := auc(t, NewHeuristic(Random, 123), train, test)
	if math.Abs(randAUC-0.5) > 0.06 {
		t.Fatalf("random heuristic AUC = %v, want about 0.5", randAUC)
	}
}

func TestHeuristicErrors(t *testing.T) {
	m := NewHeuristic(ByAge, 0)
	if err := m.Fit(nil); err == nil {
		t.Fatal("nil train must error")
	}
	if _, err := m.Scores(&feature.Set{}); err == nil {
		t.Fatal("unfitted Scores must error")
	}
	bad := &Heuristic{Kind: HeuristicKind(42), fitted: true}
	if _, err := bad.Scores(&feature.Set{}); err == nil {
		t.Fatal("unknown kind must error")
	}
	if bad.Name() == "" {
		t.Fatal("unknown kind must render a name")
	}
}

func TestModelsProduceStableRankings(t *testing.T) {
	// Determinism: fitting twice gives identical rankings.
	train, test := sets(t)
	for _, mk := range []func() core.Model{
		func() core.Model { return NewLogistic(LogisticConfig{}) },
		func() core.Model { return NewCox(CoxConfig{}) },
		func() core.Model { return NewWeibullNHPP(WeibullConfig{}) },
		func() core.Model { return NewAgeRateModel(TimePower) },
	} {
		m1, m2 := mk(), mk()
		if err := m1.Fit(train); err != nil {
			t.Fatal(err)
		}
		if err := m2.Fit(train); err != nil {
			t.Fatal(err)
		}
		s1, err := m1.Scores(test)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := m2.Scores(test)
		if err != nil {
			t.Fatal(err)
		}
		r1 := ranking(s1)
		r2 := ranking(s2)
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("%s ranking not deterministic", m1.Name())
			}
		}
	}
}

func ranking(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	return idx
}
