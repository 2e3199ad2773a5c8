package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/feature"
)

// fastOpts runs everything at 4 % scale with a reduced ES budget and the
// cheap model subset, so the whole experiment suite stays test-friendly.
func fastOpts() Options {
	return Options{
		Seed:          1,
		Scale:         0.04,
		Regions:       []string{"A"},
		Models:        []string{"DirectAUC-ES", "Cox", "Heuristic-Age"},
		ESGenerations: 15,
	}
}

func TestStandardRegistryInstantiatesEverything(t *testing.T) {
	reg := NewRegistry(1, 0)
	for _, name := range StandardModelNames() {
		m, err := reg.New(name)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if m.Name() != name {
			t.Fatalf("model %q reports name %q", name, m.Name())
		}
	}
}

func TestRunRegionsProducesFullEvals(t *testing.T) {
	results, err := RunRegions(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("want 1 region, got %d", len(results))
	}
	r := results[0]
	if r.Region != "A" || r.Net == nil {
		t.Fatalf("region result %+v", r)
	}
	if len(r.Evals) != 3 {
		t.Fatalf("want 3 model evals, got %d", len(r.Evals))
	}
	for _, e := range r.Evals {
		if e.AUC < 0.3 || e.AUC > 1 {
			t.Fatalf("%s AUC %v implausible", e.Model, e.AUC)
		}
		if e.Det1 < 0 || e.Det1 > 1 || e.Det10 < e.Det1-1e-9 {
			t.Fatalf("%s detection rates inconsistent: %v %v", e.Model, e.Det1, e.Det10)
		}
		if len(e.Scores) == 0 {
			t.Fatalf("%s missing scores", e.Model)
		}
		if e.FitSeconds < 0 {
			t.Fatalf("negative fit time")
		}
	}
	// The learned ranker should beat the bare age heuristic on AUC.
	var direct, age float64
	for _, e := range r.Evals {
		switch e.Model {
		case "DirectAUC-ES":
			direct = e.AUC
		case "Heuristic-Age":
			age = e.AUC
		}
	}
	if direct <= age-0.03 {
		t.Fatalf("DirectAUC (%v) should not trail age heuristic (%v)", direct, age)
	}
}

func TestT1DatasetSummary(t *testing.T) {
	opts := fastOpts()
	opts.Regions = []string{"A", "B"}
	tb, err := T1DatasetSummary(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := tb.String()
	// Each region renders All/CWM/RWM rows.
	if tb.NumRows() != 6 {
		t.Fatalf("want 6 rows, got %d:\n%s", tb.NumRows(), s)
	}
	for _, want := range []string{"region", "CWM", "RWM", "1998-2009"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestT0Cohorts(t *testing.T) {
	tb, err := T0Cohorts(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := tb.String()
	for _, want := range []string{"CICL", "age 0-19", "<100mm", "rate/pipe-yr"} {
		if !strings.Contains(s, want) {
			t.Fatalf("T0 missing %q:\n%s", want, s)
		}
	}
	// The header leads with the region and cohort columns, and every
	// region contributes material, age and diameter rows.
	if !strings.Contains(s, "region  cohort") {
		t.Fatalf("T0 header missing:\n%s", s)
	}
	if tb.NumRows() < 3*len(fastOpts().Regions) {
		t.Fatalf("T0 has %d rows:\n%s", tb.NumRows(), s)
	}
}

func TestT2T3F1Tables(t *testing.T) {
	results, err := RunRegions(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	t2 := T2AUCTable(results)
	if t2.NumRows() != 3 || !strings.Contains(t2.String(), "region A") {
		t.Fatalf("T2:\n%s", t2.String())
	}
	t3 := T3BudgetTable(results)
	if t3.NumRows() != 3 || !strings.Contains(t3.String(), "/") {
		t.Fatalf("T3:\n%s", t3.String())
	}
	f1 := F1DetectionSeries(results, nil)
	if f1.NumRows() != 3 || !strings.Contains(f1.String(), "100.00%") {
		t.Fatalf("F1:\n%s", f1.String())
	}
	// Empty input keeps tables valid.
	if T2AUCTable(nil).NumRows() != 0 {
		t.Fatal("empty T2 must have no rows")
	}
	if T3BudgetTable(nil).NumRows() != 0 {
		t.Fatal("empty T3 must have no rows")
	}
}

func TestT4Significance(t *testing.T) {
	opts := fastOpts()
	opts.Models = []string{"DirectAUC-ES", "Heuristic-Age", "Random"}
	res, err := T4Significance(opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 1 region x 2 baselines.
	if len(res) != 2 {
		t.Fatalf("want 2 results, got %d", len(res))
	}
	for _, r := range res {
		if r.Proposed != "DirectAUC-ES" {
			t.Fatalf("proposed = %s", r.Proposed)
		}
		if r.AUCTest.DF != 4 { // 5 rolling test years
			t.Fatalf("df = %v, want 4", r.AUCTest.DF)
		}
	}
	// Against Random the proposed method must at least have a positive
	// mean difference.
	for _, r := range res {
		if r.Baseline == "Random" && r.AUCTest.MeanDiff <= 0 {
			t.Fatalf("proposed should outrank random: %+v", r.AUCTest)
		}
	}
	tb := T4Table(res)
	if tb.NumRows() != 2 {
		t.Fatalf("T4 table rows %d", tb.NumRows())
	}
}

func TestF2WindowSweep(t *testing.T) {
	opts := fastOpts()
	opts.Models = []string{"Cox"}
	tb, err := F2WindowSweep(opts, []int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 1 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	if !strings.Contains(tb.String(), "2y") || !strings.Contains(tb.String(), "5y") {
		t.Fatalf("window headers missing:\n%s", tb.String())
	}
}

func TestT5Ablation(t *testing.T) {
	opts := fastOpts()
	opts.Models = []string{"Logistic"} // cheap, deterministic
	res, err := T5Ablation(opts)
	if err != nil {
		t.Fatal(err)
	}
	// 1 region x (1 full + 6 groups).
	if len(res) != 7 {
		t.Fatalf("want 7 rows, got %d", len(res))
	}
	if res[0].Dropped != "(none)" || res[0].DeltaAUC != 0 {
		t.Fatalf("first row must be the full model: %+v", res[0])
	}
	tb := T5Table(res)
	if tb.NumRows() != 7 {
		t.Fatal("T5 table rows")
	}
}

func TestF3Scalability(t *testing.T) {
	opts := fastOpts()
	opts.Models = []string{"Heuristic-Age"}
	tb, err := F3Scalability(opts, []int{300, 600})
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 1 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	if !strings.Contains(tb.String(), "300 pipes") {
		t.Fatalf("headers missing:\n%s", tb.String())
	}
}

func TestF4RiskMapAndSVG(t *testing.T) {
	opts := fastOpts()
	opts.Models = []string{"Cox"}
	rm, err := F4RiskMap(opts, "A")
	if err != nil {
		t.Fatal(err)
	}
	if rm.Region != "A" || rm.Model != "Cox" {
		t.Fatalf("riskmap meta %+v", rm)
	}
	if len(rm.Pipes) == 0 {
		t.Fatal("no pipes on map")
	}
	deciles := map[int]int{}
	failures := 0
	for _, p := range rm.Pipes {
		if p.Decile < 0 || p.Decile > 9 {
			t.Fatalf("decile %d out of range", p.Decile)
		}
		deciles[p.Decile]++
		if p.Failed {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("no failures on map")
	}
	// Deciles should be roughly equal-sized.
	n := len(rm.Pipes)
	for d := 0; d <= 9; d++ {
		if deciles[d] < n/20 {
			t.Fatalf("decile %d has %d of %d pipes", d, deciles[d], n)
		}
	}
	if rm.TopDecileHit < 0 || rm.TopDecileHit > 1 {
		t.Fatalf("top-decile hit %v", rm.TopDecileHit)
	}
	var buf bytes.Buffer
	if err := rm.WriteSVG(&buf, 400); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
		t.Fatal("not an SVG document")
	}
	if !strings.Contains(svg, "circle") || !strings.Contains(svg, "path") {
		t.Fatal("SVG missing pipes or failure markers")
	}
}

func TestT8Sensitivity(t *testing.T) {
	opts := fastOpts()
	opts.ESGenerations = 6
	tb, err := T8Sensitivity(opts, "A", 2)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 6 {
		t.Fatalf("rows = %d:\n%s", tb.NumRows(), tb.String())
	}
	for _, want := range []string{"defaults", "cold-start", "neg-batch=1x"} {
		if !strings.Contains(tb.String(), want) {
			t.Fatalf("T8 missing %q", want)
		}
	}
}

func TestF6Staleness(t *testing.T) {
	opts := fastOpts()
	opts.Models = []string{"Logistic", "Heuristic-Age"}
	tb, err := F6Staleness(opts, "A", 6)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// Train on 1998-2003 → test years 2004..2009 = 6 columns.
	if !strings.Contains(tb.String(), "2004") || !strings.Contains(tb.String(), "2009") {
		t.Fatalf("test-year columns missing:\n%s", tb.String())
	}
	if _, err := F6Staleness(opts, "A", 50); err == nil {
		t.Fatal("window consuming all years must error")
	}
}

func TestF5RenewalImpact(t *testing.T) {
	opts := fastOpts()
	opts.Models = []string{"Logistic"}
	tb, err := F5RenewalImpact(opts, "A", 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 4 {
		t.Fatalf("rows = %d:\n%s", tb.NumRows(), tb.String())
	}
	s := tb.String()
	for _, want := range []string{"none", "model", "oldest", "random"} {
		if !strings.Contains(s, want) {
			t.Fatalf("F5 missing policy %q:\n%s", want, s)
		}
	}
	// Errors.
	if _, err := F5RenewalImpact(opts, "A", 0, 3); err == nil {
		t.Fatal("bad fraction must error")
	}
	if _, err := F5RenewalImpact(opts, "A", 0.05, 0); err == nil {
		t.Fatal("bad horizon must error")
	}
	if _, err := F5RenewalImpact(opts, "Z", 0.05, 3); err == nil {
		t.Fatal("unknown region must error")
	}
}

func TestF4RiskMapUnknownRegion(t *testing.T) {
	if _, err := F4RiskMap(fastOpts(), "Z"); err == nil {
		t.Fatal("unknown region must error")
	}
}

func TestWriteSVGPropagatesWriterErrors(t *testing.T) {
	opts := fastOpts()
	opts.Models = []string{"Heuristic-Age"}
	rm, err := F4RiskMap(opts, "A")
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.WriteSVG(failingWriter{}, 100); err == nil {
		t.Fatal("writer failure must propagate")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) {
	return 0, fmt.Errorf("disk full")
}

func TestGenerateRegionRejectsBadOptions(t *testing.T) {
	if _, _, err := GenerateRegion("A", Options{Seed: 1, Scale: 7}); err == nil {
		t.Fatal("scale > 1 must error")
	}
	if _, _, err := GenerateRegion("Q", Options{Seed: 1, Scale: 0.1}); err == nil {
		t.Fatal("unknown region must error")
	}
}

func TestEvaluateSplitPropagatesModelErrors(t *testing.T) {
	opts := fastOpts()
	net, _, err := GenerateRegion("A", opts)
	if err != nil {
		t.Fatal(err)
	}
	split, err := dataset.PaperSplit(net)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(1, 5)
	if _, err := EvaluateSplit(net, split, reg, []string{"not-a-model"}, feature.Groups{}); err == nil {
		t.Fatal("unknown model must error")
	}
}
