package experiments

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/feature"
)

// TestParallelMatchesSequential pins EvaluateSplit's fan-out: evaluating
// several models in one call must give exactly what evaluating each one
// alone gives.
func TestParallelMatchesSequential(t *testing.T) {
	opts := fastOpts()
	net, _, err := GenerateRegion("A", opts)
	if err != nil {
		t.Fatal(err)
	}
	split, err := dataset.PaperSplit(net)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(opts.Seed, opts.ESGenerations)
	names := []string{"DirectAUC-ES", "Logistic", "Cox", "Heuristic-Age"}
	par, err := EvaluateSplit(net, split, reg, names, feature.Groups{})
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(names) {
		t.Fatalf("got %d evals for %d names", len(par), len(names))
	}
	for i, name := range names {
		alone, err := EvaluateSplit(net, split, reg, []string{name}, feature.Groups{})
		if err != nil {
			t.Fatal(err)
		}
		seq := alone[0]
		if seq.Model != par[i].Model {
			t.Fatalf("order differs at %d: %s vs %s", i, seq.Model, par[i].Model)
		}
		if seq.AUC != par[i].AUC {
			t.Fatalf("%s AUC differs: %v vs %v", seq.Model, seq.AUC, par[i].AUC)
		}
		if len(seq.Scores) != len(par[i].Scores) {
			t.Fatalf("%s: %d scores vs %d", seq.Model, len(seq.Scores), len(par[i].Scores))
		}
		for j := range seq.Scores {
			if seq.Scores[j] != par[i].Scores[j] {
				t.Fatalf("%s scores differ at %d", seq.Model, j)
			}
		}
	}
}

func TestParallelPropagatesErrors(t *testing.T) {
	opts := fastOpts()
	net, _, err := GenerateRegion("A", opts)
	if err != nil {
		t.Fatal(err)
	}
	split, err := dataset.PaperSplit(net)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(opts.Seed, opts.ESGenerations)
	if _, err := EvaluateSplit(net, split, reg, []string{"Cox", "bogus"}, feature.Groups{}); err == nil {
		t.Fatal("unknown model must propagate")
	}
}

func TestT7Agreement(t *testing.T) {
	opts := fastOpts()
	opts.Models = []string{"DirectAUC-ES", "RankSVM", "Heuristic-Age"}
	res, err := T7Agreement(opts, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("regions = %d", len(res))
	}
	r := res[0]
	if len(r.Models) != 3 || len(r.Tau) != 3 {
		t.Fatalf("matrix shape %dx%d", len(r.Models), len(r.Tau))
	}
	for i := range r.Tau {
		if r.Tau[i][i] != 1 {
			t.Fatalf("diagonal tau = %v", r.Tau[i][i])
		}
		for j := range r.Tau {
			if r.Tau[i][j] != r.Tau[j][i] {
				t.Fatal("matrix not symmetric")
			}
			if r.Tau[i][j] < -1 || r.Tau[i][j] > 1 {
				t.Fatalf("tau out of range: %v", r.Tau[i][j])
			}
		}
	}
	// The two linear rankers should agree with each other more than either
	// agrees with the bare age heuristic.
	idx := map[string]int{}
	for i, m := range r.Models {
		idx[m] = i
	}
	linPair := r.Tau[idx["DirectAUC-ES"]][idx["RankSVM"]]
	agePair := r.Tau[idx["DirectAUC-ES"]][idx["Heuristic-Age"]]
	if linPair <= agePair {
		t.Fatalf("expected linear rankers to agree most: tau(lin,lin)=%v tau(lin,age)=%v", linPair, agePair)
	}
	tb := T7Table(r)
	if tb.NumRows() != 3 || !strings.Contains(tb.String(), "Kendall") {
		t.Fatalf("T7 table:\n%s", tb.String())
	}
}
