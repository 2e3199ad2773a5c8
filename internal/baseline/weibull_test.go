package baseline

import (
	"math"
	"testing"

	"repro/internal/feature"
	"repro/internal/linalg"
	"repro/internal/stats"
)

// perInstanceWeibull is the oracle for WeibullNHPP.Fit's distinct-age
// lookup: the same gradient ascent, calling ageBasis once per instance
// per iteration.
func perInstanceWeibull(train *feature.Set, cfg WeibullConfig) (alpha, beta float64, theta []float64) {
	cfg.fillDefaults()
	n, d := train.Len(), train.Dim()
	logAlpha := math.Log(float64(train.Positives()) / float64(n))
	logBeta := math.Log(1.5)
	theta = make([]float64, d)
	y := make([]float64, n)
	for i, v := range train.Label {
		if v {
			y[i] = 1
		}
	}
	gTheta := make([]float64, d)
	for iter := 0; iter < cfg.Iterations; iter++ {
		alpha := math.Exp(logAlpha)
		beta := math.Exp(logBeta)
		var gA, gB float64
		for j := range gTheta {
			gTheta[j] = 0
		}
		for i := 0; i < n; i++ {
			eta := linalg.Dot(theta, train.Row(i, nil))
			if eta > 30 {
				eta = 30
			}
			g, dgdb := ageBasis(train.Age[i], beta)
			mu := alpha * g * math.Exp(eta)
			if mu > 50 {
				mu = 50
			}
			r := y[i] - mu
			gA += r
			if g > 0 {
				gB += r * (dgdb / g) * beta
			}
			linalg.Axpy(r, train.Row(i, nil), gTheta)
		}
		for j := range gTheta {
			gTheta[j] -= cfg.Ridge * float64(n) * theta[j]
		}
		lr := cfg.LearningRate / (1 + 0.02*float64(iter)) / float64(n)
		logAlpha += lr * gA * 4
		logBeta += lr * gB * 4
		linalg.Axpy(lr, gTheta, theta)
		if logBeta > math.Log(6) {
			logBeta = math.Log(6)
		}
		if logBeta < math.Log(0.2) {
			logBeta = math.Log(0.2)
		}
	}
	return math.Exp(logAlpha), math.Exp(logBeta), theta
}

// ageSet builds an n × dim pipe-year set whose failure odds rise with
// age and with the first feature, about 2.8·posRate positive for ages
// spread over 0–80; ageOf draws each instance's age.
func ageSet(seed int64, n, dim int, posRate float64, ageOf func(i int, rng *stats.RNG) float64) *feature.Set {
	rng := stats.NewRNG(seed)
	names := make([]string, dim)
	for j := range names {
		names[j] = "f"
	}
	s := feature.NewDense(names, n, dim)
	for i := 0; i < n; i++ {
		age := ageOf(i, rng)
		row := s.Row(i, nil)
		for j := range row {
			row[j] = rng.Norm()
		}
		s.Label[i] = rng.Bernoulli(math.Min(0.5, posRate*(1+age/40)*(1+math.Max(row[0], 0))))
		s.Age[i] = age
		s.LengthM[i] = 100
		s.PipeIdx[i] = i
	}
	return s
}

// wholeYears draws ages 0–79.
func wholeYears(_ int, rng *stats.RNG) float64 { return float64(rng.Intn(80)) }

// TestWeibullMatchesPerInstanceBasis holds Fit to the per-instance
// oracle: Alpha, Beta and every Theta are bitwise equal.
func TestWeibullMatchesPerInstanceBasis(t *testing.T) {
	cases := []struct {
		name  string
		ageOf func(int, *stats.RNG) float64
	}{
		// Whole years from 0, so the a > 0 branch of ageBasis is split.
		{"whole-years", wholeYears},
		{"fractional", func(i int, rng *stats.RNG) float64 {
			if i%7 == 0 {
				return 0
			}
			return float64(rng.Intn(12)) + 0.25*float64(rng.Intn(4))
		}},
		// Over 256 distinct ages, each seen several times.
		{"many-distinct", func(i int, _ *stats.RNG) float64 { return float64(i%600) / 7 }},
	}
	for _, tc := range cases {
		train := ageSet(61, 3000, 3, 0.03, tc.ageOf)
		cfg := WeibullConfig{Iterations: 60}
		m := NewWeibullNHPP(cfg)
		if err := m.Fit(train); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		alpha, beta, theta := perInstanceWeibull(train, cfg)
		if math.Float64bits(m.Alpha) != math.Float64bits(alpha) || math.Float64bits(m.Beta) != math.Float64bits(beta) {
			t.Fatalf("%s: (alpha, beta) = (%v, %v), oracle (%v, %v)", tc.name, m.Alpha, m.Beta, alpha, beta)
		}
		for j := range theta {
			if math.Float64bits(m.Theta[j]) != math.Float64bits(theta[j]) {
				t.Fatalf("%s: theta[%d] = %v, oracle %v", tc.name, j, m.Theta[j], theta[j])
			}
		}
	}
}

func TestDistinctAges(t *testing.T) {
	nan := math.NaN()
	ages := []float64{3, 0, 3, math.Copysign(0, -1), 1.5, nan, 0, nan}
	vals, idx := distinctAges(ages)
	for i, a := range ages {
		if math.Float64bits(vals[idx[i]]) != math.Float64bits(a) {
			t.Fatalf("age %d = %v maps to %v", i, a, vals[idx[i]])
		}
	}
	// 3, 0, −0, 1.5 and one NaN bit pattern.
	if len(vals) != 5 {
		t.Fatalf("%d distinct ages %v, want 5", len(vals), vals)
	}
}

// BenchmarkWeibullFit measures one Weibull fit at the train-offline
// shape: 8k pipe-years over 80 whole-year ages, 35 features, about 2 %
// positives, the default 400 iterations.
func BenchmarkWeibullFit(b *testing.B) {
	set := ageSet(3, 8000, 35, 0.007, wholeYears)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := NewWeibullNHPP(WeibullConfig{}).Fit(set); err != nil {
			b.Fatal(err)
		}
	}
}
