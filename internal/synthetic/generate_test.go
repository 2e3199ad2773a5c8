package synthetic

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/colfmt"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// smallConfig returns a fast config for unit tests (~1.5k pipes).
func smallConfig(seed int64) Config {
	cfg, err := RegionA(seed).Scaled(0.1)
	if err != nil {
		panic(err)
	}
	return cfg
}

func TestGenerateDeterminism(t *testing.T) {
	a, _, err := Generate(smallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Generate(smallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumPipes() != b.NumPipes() || a.NumFailures() != b.NumFailures() {
		t.Fatalf("same seed differs: %d/%d vs %d/%d",
			a.NumPipes(), a.NumFailures(), b.NumPipes(), b.NumFailures())
	}
	for i := range a.Pipes() {
		if a.Pipes()[i] != b.Pipes()[i] {
			t.Fatalf("pipe %d differs", i)
		}
	}
	c, _, err := Generate(smallConfig(43))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumFailures() == a.NumFailures() && c.Pipes()[0] == a.Pipes()[0] {
		t.Fatal("different seeds produced identical output")
	}
}

func TestGenerateValidNetwork(t *testing.T) {
	net, truth, err := Generate(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); err != nil {
		t.Fatalf("generated network invalid: %v", err)
	}
	if len(truth.Frailty) != net.NumPipes() || len(truth.FinalYearRate) != net.NumPipes() {
		t.Fatal("truth arrays sized wrong")
	}
	for i, f := range truth.Frailty {
		if f <= 0 {
			t.Fatalf("frailty %d = %v", i, f)
		}
	}
	if truth.TrueFailures < net.NumFailures() {
		t.Fatalf("recorded %d > true %d failures", net.NumFailures(), truth.TrueFailures)
	}
}

func TestCalibrationHitsTarget(t *testing.T) {
	cfg := smallConfig(7)
	net, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	target := float64(cfg.TargetFailures)
	got := float64(net.NumFailures())
	// Poisson noise around the calibrated expectation: allow 15 %.
	if math.Abs(got-target)/target > 0.15 {
		t.Fatalf("failures = %v, calibration target %v", got, target)
	}
}

func TestClassMixAndImbalance(t *testing.T) {
	cfg := smallConfig(3)
	net, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cwm := net.SubsetByClass(dataset.CriticalMain)
	frac := float64(cwm.NumPipes()) / float64(net.NumPipes())
	if math.Abs(frac-cfg.CWMFraction) > 0.05 {
		t.Fatalf("CWM fraction %v, want about %v", frac, cfg.CWMFraction)
	}
	// The class imbalance that motivates the paper: most pipes never fail
	// in the test year.
	split, err := dataset.PaperSplit(net)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for i := 0; i < net.NumPipes(); i++ {
		if net.FailedInYear(i, split.TestYear) {
			failed++
		}
	}
	posRate := float64(failed) / float64(net.NumPipes())
	if posRate > 0.15 {
		t.Fatalf("test-year positive rate %v implausibly high", posRate)
	}
	if failed == 0 {
		t.Fatal("no failures at all in test year; generator broken")
	}
	// CWM failure rate per pipe should be lower than RWM (larger, better
	// protected pipes), matching published summaries.
	rwm := net.SubsetByClass(dataset.ReticulationMain)
	cwmRate := float64(cwm.NumFailures()) / float64(cwm.NumPipes())
	rwmRate := float64(rwm.NumFailures()) / float64(rwm.NumPipes())
	if cwmRate >= rwmRate {
		t.Fatalf("CWM rate %v should be below RWM rate %v", cwmRate, rwmRate)
	}
}

func TestOlderPipesFailMore(t *testing.T) {
	net, _, err := Generate(smallConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	// Split pipes at the median laid year; the older half must account for
	// more failures (the ground truth ages with Weibull shape > 1 for the
	// dominant materials).
	years := make([]float64, net.NumPipes())
	for i, p := range net.Pipes() {
		years[i] = float64(p.LaidYear)
	}
	med := stats.Median(years)
	oldF, newF := 0, 0
	for i, p := range net.Pipes() {
		c := net.FailureCount(i, net.ObservedFrom, net.ObservedTo)
		if float64(p.LaidYear) <= med {
			oldF += c
		} else {
			newF += c
		}
	}
	if oldF <= newF {
		t.Fatalf("older half has %d failures, newer half %d; ageing signal missing", oldF, newF)
	}
}

func TestTruthRateCorrelatesWithObservedFailures(t *testing.T) {
	net, truth, err := Generate(smallConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, net.NumPipes())
	for i := range counts {
		counts[i] = float64(net.FailureCount(i, net.ObservedFrom, net.ObservedTo))
	}
	rho := stats.Spearman(truth.FinalYearRate, counts)
	if rho < 0.2 {
		t.Fatalf("truth rate vs observed failures Spearman %v; generator signal too weak", rho)
	}
}

func TestLaidSkewShiftsAges(t *testing.T) {
	young := smallConfig(5)
	young.LaidSkew = 0.5 // concentrate recent
	old := smallConfig(5)
	old.LaidSkew = 3.0 // concentrate past
	ny, _, err := Generate(young)
	if err != nil {
		t.Fatal(err)
	}
	no, _, err := Generate(old)
	if err != nil {
		t.Fatal(err)
	}
	meanYear := func(n *dataset.Columns) float64 {
		s := 0.0
		for _, p := range n.Pipes() {
			s += float64(p.LaidYear)
		}
		return s / float64(n.NumPipes())
	}
	if meanYear(ny) <= meanYear(no) {
		t.Fatalf("skew 0.5 mean laid %v should exceed skew 3 mean %v", meanYear(ny), meanYear(no))
	}
}

func TestSoilSpatialCoherence(t *testing.T) {
	net, _, err := Generate(smallConfig(17))
	if err != nil {
		t.Fatal(err)
	}
	// Nearby pipes should share soil more often than far-apart pipes.
	pipes := net.Pipes()
	sameNear, near, sameFar, far := 0, 0, 0, 0
	for i := 0; i < len(pipes); i += 7 {
		for j := i + 1; j < len(pipes) && j < i+40; j++ {
			dx, dy := pipes[i].X-pipes[j].X, pipes[i].Y-pipes[j].Y
			d := math.Hypot(dx, dy)
			same := pipes[i].SoilGeology == pipes[j].SoilGeology
			if d < 500 {
				near++
				if same {
					sameNear++
				}
			} else if d > 5000 {
				far++
				if same {
					sameFar++
				}
			}
		}
	}
	if near < 10 || far < 10 {
		t.Skip("not enough pairs for coherence check")
	}
	pNear := float64(sameNear) / float64(near)
	pFar := float64(sameFar) / float64(far)
	if pNear <= pFar {
		t.Fatalf("soil not spatially coherent: near agreement %v <= far %v", pNear, pFar)
	}
}

func TestPresetLookup(t *testing.T) {
	for _, name := range []string{"A", "B", "C"} {
		cfg, err := Preset(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Region != name {
			t.Fatalf("preset %s region %s", name, cfg.Region)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("preset %s invalid: %v", name, err)
		}
	}
	if _, err := Preset("Z", 1); err == nil {
		t.Fatal("unknown preset must error")
	}
}

func TestConfigValidateRejections(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.NumPipes = 0 },
		func(c *Config) { c.CWMFraction = 1.5 },
		func(c *Config) { c.LaidFrom = 2050 },
		func(c *Config) { c.ObservedFrom = 2050 },
		func(c *Config) { c.LaidTo = 2050 },
		func(c *Config) { c.AreaKM2 = 0 },
		func(c *Config) { c.SoilZones = 0 },
		func(c *Config) { c.SegmentLengthM = 0 },
		func(c *Config) { c.Eras = nil },
		func(c *Config) { c.MissProb = 1 },
		func(c *Config) { c.LaidSkew = 0 },
		func(c *Config) { c.Eras = []Era{{FromYear: 10}, {FromYear: 5}} },
	}
	for i, mut := range mutations {
		cfg := RegionA(1)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

func TestScaled(t *testing.T) {
	cfg := RegionA(1)
	s, err := cfg.Scaled(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPipes != cfg.NumPipes/10 {
		t.Fatalf("scaled pipes %d", s.NumPipes)
	}
	if s.TargetFailures != cfg.TargetFailures/10 {
		t.Fatalf("scaled target %d", s.TargetFailures)
	}
	if _, err := cfg.Scaled(0); err == nil {
		t.Fatal("scale 0 must error")
	}
	if _, err := cfg.Scaled(2); err == nil {
		t.Fatal("scale 2 must error")
	}
}

func TestAgingFactorUnknownMaterial(t *testing.T) {
	h := DefaultHazard()
	if _, err := h.AgingFactor("ADAMANTIUM", 10); err == nil {
		t.Fatal("unknown material must error")
	}
}

func TestAgingFactorMonotoneForAgingMaterials(t *testing.T) {
	h := DefaultHazard()
	f10, err := h.AgingFactor(dataset.CI, 10)
	if err != nil {
		t.Fatal(err)
	}
	f60, err := h.AgingFactor(dataset.CI, 60)
	if err != nil {
		t.Fatal(err)
	}
	if f60 <= f10 {
		t.Fatalf("CI ageing factor must increase: %v vs %v", f10, f60)
	}
	// PVC (shape < 1) must not increase.
	p10, _ := h.AgingFactor(dataset.PVC, 10)
	p60, _ := h.AgingFactor(dataset.PVC, 60)
	if p60 >= p10 {
		t.Fatalf("PVC ageing factor must decrease: %v vs %v", p10, p60)
	}
}

func TestAnnualRateCovariateDirections(t *testing.T) {
	h := DefaultHazard()
	base := dataset.Pipe{
		ID: "X", Material: dataset.CICL, Coating: dataset.CoatingNone,
		DiameterMM: 150, LengthM: 100, LaidYear: 1950,
		SoilCorrosivity: "MODERATE", SoilExpansivity: "SLIGHT",
		SoilGeology: "SANDSTONE", SoilMap: "COLLUVIAL",
		DistToTrafficM: 1000, Segments: 1,
	}
	rate := func(p dataset.Pipe) float64 {
		r, err := h.AnnualRate(&p, 2005, 1)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r0 := rate(base)

	worse := base
	worse.SoilCorrosivity = "SEVERE"
	if rate(worse) <= r0 {
		t.Fatal("severe corrosivity must raise the rate")
	}
	longer := base
	longer.LengthM = 200
	if got := rate(longer); math.Abs(got/r0-2) > 1e-9 {
		t.Fatalf("doubling length must double the rate (LengthExp=1): ratio %v", got/r0)
	}
	nearTraffic := base
	nearTraffic.DistToTrafficM = 0
	if rate(nearTraffic) <= r0 {
		t.Fatal("traffic proximity must raise the rate")
	}
	bigger := base
	bigger.DiameterMM = 600
	if rate(bigger) >= r0 {
		t.Fatal("larger diameter must lower the rate (negative exponent)")
	}
	sleeved := base
	sleeved.Coating = dataset.CoatingPESleeve
	if rate(sleeved) >= r0 {
		t.Fatal("PE sleeve must lower the rate")
	}
	frail, err := h.AnnualRate(&base, 2005, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(frail/r0-2) > 1e-9 {
		t.Fatal("frailty must scale the rate linearly")
	}
}

// TestGenerateDigests pins the PCOL bytes Generate produces for a flat
// and a hierarchical preset, so the generator's output, which every
// golden table rests on, cannot move silently. A deliberate change to
// the generator must update these digests.
func TestGenerateDigests(t *testing.T) {
	for _, tc := range []struct {
		preset string
		scale  float64
		sha256 string
	}{
		{"A", 0.04, "e5859be01b0e00e06b0e466b0a7137c84da3402efaa96123578b568e28533ddb"},
		{"B", 0.04, "bbac75338fd92aff61c48048fca52f85b3728a91b2d5f78923fc3f385e378d00"},
		{"metro", 0.004, "30b4d3524a0d200cfda45bbc36c3295aa1b890747bfebad7f2f7e19d877ec557"},
	} {
		t.Run(tc.preset, func(t *testing.T) {
			net, _, err := Generate(scaledPreset(t, tc.preset, 77, tc.scale))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := colfmt.Write(&buf, net); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.sha256 {
				t.Fatalf("PCOL digest %s, want %s", got, tc.sha256)
			}
		})
	}
}

// TestGenerateTruthDigests pins the ground truth Generate reports for
// the configurations of TestGenerateDigests: the calibrated GlobalRate,
// which sums every pipe-year rate of the calibration pass, then each
// pipe's final-year rate from the sampling pass and its frailty. The
// sampled failures only see a rate through a Poisson draw, so a rate
// that moves by one ulp can leave the PCOL digest unchanged; these
// digests move with it.
func TestGenerateTruthDigests(t *testing.T) {
	for _, tc := range []struct {
		preset string
		scale  float64
		sha256 string
	}{
		{"A", 0.04, "900375db26fff6a66f9b6ecd375baebc9f5d0153f9b78634366959bb93d30268"},
		{"B", 0.04, "9815f45ab47aa0a0b312faa862011cff8d728a2de57c31f45e956823bd3cac21"},
		{"metro", 0.004, "1c3b1dfec03e8ee76a221b42b232f41ba14864aac64694d1cd0d88c5dc9e2696"},
	} {
		t.Run(tc.preset, func(t *testing.T) {
			_, truth, err := Generate(scaledPreset(t, tc.preset, 77, tc.scale))
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var b [8]byte
			put := func(v float64) {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
			put(truth.CalibratedHazard.GlobalRate)
			for i := range truth.FinalYearRate {
				put(truth.FinalYearRate[i])
				put(truth.Frailty[i])
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.sha256 {
				t.Fatalf("truth digest %s, want %s", got, tc.sha256)
			}
		})
	}
}
