package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/synthetic"
)

// esBitsCases are the DirectAUC-ES fits whose exact output is pinned:
// generated regions A and C at scale 0.3, seed 1, paper split, 30
// generations. Any change to the fitness kernel, the ES loop or the
// feature pipeline that moves a single bit of W or TrainAUC fails here;
// one that means to must record new digests.
var esBitsCases = []struct {
	region string
	digest string
}{
	{"A", "a5ac4255d5c3f5668de87143f891466a0e9a7e833f7603b9837587d2bd44a24a"},
	{"C", "7f3581683bd04e1c55dfa50e7e9b783e975da97ddd995cb7f13354a4321bb8c7"},
}

// esTrainSet builds the standardized paper-split training set of a
// generated region.
func esTrainSet(t *testing.T, region string) *feature.Set {
	t.Helper()
	return esTrainSetWith(t, region, (*feature.Builder).TrainSet)
}

// esTrainSetWith is esTrainSet with the set built by build.
func esTrainSetWith(t *testing.T, region string, build func(*feature.Builder, dataset.Split) (*feature.Set, error)) *feature.Set {
	t.Helper()
	cfg, err := synthetic.Preset(region, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg, err = cfg.Scaled(0.3); err != nil {
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
	train, err := build(b, split)
	if err != nil {
		t.Fatal(err)
	}
	return train
}

// esDigest fits DirectAUC-ES and returns the SHA-256 of the Float64bits
// of W followed by TrainAUC, little-endian.
func esDigest(train *feature.Set, workers int) (string, error) {
	cfg := core.DefaultDirectAUCConfig(1)
	cfg.Generations = 30
	cfg.Workers = workers
	m := core.NewDirectAUC(cfg)
	if err := m.Fit(train); err != nil {
		return "", err
	}
	h := sha256.New()
	var b [8]byte
	for _, w := range append(m.W, m.TrainAUC) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// TestDirectAUCBitsPinned holds the ES's weights and training AUC to the
// recorded digests for one and two workers, and for two fits of the
// same set running concurrently: fitness values are integer-valued
// rank statistics, so neither the worker count nor a neighbouring fit
// may change a bit.
func TestDirectAUCBitsPinned(t *testing.T) {
	for _, c := range esBitsCases {
		t.Run(c.region, func(t *testing.T) {
			train := esTrainSet(t, c.region)
			for _, workers := range []int{1, 2} {
				got, err := esDigest(train, workers)
				if err != nil {
					t.Fatal(err)
				}
				if got != c.digest {
					t.Errorf("workers=%d: digest %s, want %s", workers, got, c.digest)
				}
			}
			var wg sync.WaitGroup
			got := make([]string, 2)
			errs := make([]error, 2)
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = esDigest(train, 2)
				}()
			}
			wg.Wait()
			for i := range got {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if got[i] != c.digest {
					t.Errorf("concurrent fit %d: digest %s, want %s", i, got[i], c.digest)
				}
			}
		})
	}
}

// TestDirectAUCFactoredBitsPinned fits the pinned cases from factored
// sets, whose rows the ES gathers instead of reading a matrix: one and
// two workers, fitting one shared set at the same time, must both match
// the dense fits' digests.
func TestDirectAUCFactoredBitsPinned(t *testing.T) {
	for _, c := range esBitsCases {
		t.Run(c.region, func(t *testing.T) {
			train := esTrainSetWith(t, c.region, (*feature.Builder).FactoredTrainSet)
			if train.X != nil {
				t.Fatal("set is not factored")
			}
			var wg sync.WaitGroup
			got := make([]string, 2)
			errs := make([]error, 2)
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = esDigest(train, i+1)
				}()
			}
			wg.Wait()
			for i := range got {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if got[i] != c.digest {
					t.Errorf("workers=%d: digest %s, want %s", i+1, got[i], c.digest)
				}
			}
		})
	}
}
