package colfmt

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/feature"
)

// encodedAt returns a PCOL byte image of region A scaled to the given
// fraction, for alloc measurements at two different row counts.
func encodedAt(t *testing.T, scale float64) []byte {
	t.Helper()
	return encode(t, testNetwork(t, scale, 11))
}

// TestReadAllocsRowIndependent enforces the O(columns) loading guarantee:
// decoding a registry 5x larger must cost exactly the same number of
// allocations. This is the alloc-regression gate wired into `make verify`.
func TestReadAllocsRowIndependent(t *testing.T) {
	small := encodedAt(t, 0.05)
	large := encodedAt(t, 0.25)

	measure := func(raw []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Read(bytes.NewReader(raw), int64(len(raw))); err != nil {
				t.Fatalf("read: %v", err)
			}
		})
	}
	smallAllocs := measure(small)
	largeAllocs := measure(large)
	if smallAllocs != largeAllocs {
		t.Fatalf("allocation count grew with rows: %.0f at %d bytes vs %.0f at %d bytes",
			smallAllocs, len(small), largeAllocs, len(large))
	}
	// One typed slice per column plus bounded per-section scratch; leave
	// headroom for dictionary entries but stay firmly size-independent.
	const cap = 200
	if largeAllocs > cap {
		t.Fatalf("loading allocates %.0f times, want <= %d", largeAllocs, cap)
	}
}

// TestIngestAllocsRowIndependent extends the guarantee through the feature
// pipeline: filling the dense feature.Set backing straight from the columns
// allocates the same number of times regardless of registry size.
func TestIngestAllocsRowIndependent(t *testing.T) {
	measure := func(scale float64) float64 {
		raw := encodedAt(t, scale)
		d, err := Read(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := feature.NewBuilder(d, feature.Options{Groups: feature.AllGroups(), Standardize: true})
		if err != nil {
			t.Fatal(err)
		}
		split := dataset.Split{
			TrainFrom: d.ObservedFrom,
			TrainTo:   d.ObservedTo - 1,
			TestYear:  d.ObservedTo,
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := b.TrainSet(split); err != nil {
				t.Fatalf("train set: %v", err)
			}
			if _, err := b.TestSet(split); err != nil {
				t.Fatalf("test set: %v", err)
			}
		})
	}
	smallAllocs := measure(0.05)
	largeAllocs := measure(0.25)
	if smallAllocs != largeAllocs {
		t.Fatalf("feature-ingest allocation count grew with rows: %.0f vs %.0f", smallAllocs, largeAllocs)
	}
}
