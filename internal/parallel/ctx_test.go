package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestRunCtxUncancelledMatchesRun pins the cancellation contract: with a
// live context RunCtx covers every index exactly once (like Run) and
// returns nil.
func TestRunCtxUncancelledMatchesRun(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		for _, n := range []int{0, 1, 17, 100} {
			p := New(workers)
			hits := make([]int32, n)
			err := p.RunCtx(context.Background(), n, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestRunCtxPreCancelledSkipsAllChunks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var calls atomic.Int32
		err := New(workers).RunCtx(ctx, 50, func(_, lo, hi int) { calls.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want Canceled", workers, err)
		}
		if calls.Load() != 0 {
			t.Fatalf("workers=%d: %d chunks ran on a dead context", workers, calls.Load())
		}
	}
}
