package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersDefaults(t *testing.T) {
	var zero Pool
	if zero.Workers() != 1 {
		t.Fatalf("zero pool workers = %d, want 1", zero.Workers())
	}
	if got := New(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(0) workers = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(-3).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(-3) workers = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(5).Workers(); got != 5 {
		t.Fatalf("New(5) workers = %d", got)
	}
}

func TestRunCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 2, 5, 16, 17, 100} {
			p := New(workers)
			hits := make([]int32, n)
			p.Run(n, func(worker, lo, hi int) {
				if worker < 0 || worker >= p.Workers() {
					t.Errorf("worker id %d out of range", worker)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestRunChunksAreDisjointPerWorker(t *testing.T) {
	// Two calls with the same (n, workers) must produce the same chunking,
	// and per-worker scratch indexed by the worker id must never be shared.
	const n, workers = 103, 4
	p := New(workers)
	owner := make([]int, n)
	p.Run(n, func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			owner[i] = worker
		}
	})
	again := make([]int, n)
	p.Run(n, func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			again[i] = worker
		}
	})
	for i := range owner {
		if owner[i] != again[i] {
			t.Fatalf("chunking not deterministic at %d: %d vs %d", i, owner[i], again[i])
		}
	}
}

func TestForEachDynamicCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 3, 50} {
			hits := make([]int32, n)
			New(workers).ForEachDynamic(n, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}
