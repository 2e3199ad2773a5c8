package tune_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/synthetic"
	"repro/internal/tune"
)

// cvPinCandidates are the learners whose cross-validated AUCs are
// pinned: the paper's ES and RankBoost and the four baselines that read
// feature rows, each configured small enough for a fast test.
func cvPinCandidates() []tune.Candidate {
	return []tune.Candidate{
		{Label: "DirectAUC-ES", Make: func() core.Model {
			cfg := core.DefaultDirectAUCConfig(1)
			cfg.Generations = 10
			return core.NewDirectAUC(cfg)
		}},
		{Label: "RankBoost", Make: func() core.Model { return core.NewRankBoost(core.RankBoostConfig{Rounds: 30}) }},
		{Label: "Logistic", Make: func() core.Model { return baseline.NewLogistic(baseline.LogisticConfig{}) }},
		{Label: "Cox", Make: func() core.Model { return baseline.NewCox(baseline.CoxConfig{}) }},
		{Label: "Weibull", Make: func() core.Model { return baseline.NewWeibullNHPP(baseline.WeibullConfig{}) }},
		{Label: "RandomForest", Make: func() core.Model {
			return baseline.NewRandomForest(baseline.ForestConfig{Trees: 8, Seed: 1})
		}},
	}
}

// cvPinDigest is the SHA-256 of the results' labels and the Float64bits
// of their mean AUCs, in result order.
const cvPinDigest = "50c01e3c9bb25b85fba12f4705a1f6956fb02ee6e6fba482b119c65c77b0d699"

// TestSelectByCVBitsPinned holds three-fold CV over region A at scale
// 0.05 to the recorded digest, from the dense training set and from the
// factored one: the fold sets, every candidate's fits and the ranking
// of the results must not move a bit.
func TestSelectByCVBitsPinned(t *testing.T) {
	cfg, err := synthetic.Preset("A", 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg, err = cfg.Scaled(0.05); err != nil {
		t.Fatal(err)
	}
	cols, _, err := synthetic.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	split, err := dataset.PaperSplit(cols)
	if err != nil {
		t.Fatal(err)
	}
	b, err := feature.NewBuilder(cols, feature.Options{Standardize: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func(*feature.Builder, dataset.Split) (*feature.Set, error){
		"dense":    (*feature.Builder).TrainSet,
		"factored": (*feature.Builder).FactoredTrainSet,
	} {
		train, err := build(b, split)
		if err != nil {
			t.Fatal(err)
		}
		results, err := tune.SelectByCV(train, cvPinCandidates(), 3, 7)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [8]byte
		for _, r := range results {
			h.Write([]byte(r.Label))
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.MeanAUC))
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != cvPinDigest {
			t.Errorf("%s set: digest %s, want %s", name, got, cvPinDigest)
		}
	}
}
