// Package parallel provides the bounded, deterministic fork-join worker
// pool used by the training and serving hot paths.
//
// The pool makes one guarantee the rest of the repository leans on: the
// *assignment* of work to workers never influences results. Run partitions
// the index space into chunks that depend only on (n, Workers()), and the
// dynamic variant hands out indices one at a time; in both cases a body
// that writes only state owned by its index (out[i], or scratch owned by
// its worker slot) produces bit-identical results for any worker count,
// including 1. Randomized callers keep their RNG draws on the caller's
// goroutine (or derive per-item streams from the seed) so that scheduling
// can never reorder a random stream.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Pool task metrics. Handles are resolved once at package init; each
// Run/ForEachDynamic call then pays two lock-free atomic adds — noise
// next to spawning even a single goroutine, so the counters are safe on
// the training hot paths. Item counts are added per call, not per item.
var (
	runCalls     = obs.Default().Counter("parallel.run.calls")
	runItems     = obs.Default().Counter("parallel.run.items")
	dynamicCalls = obs.Default().Counter("parallel.dynamic.calls")
	dynamicItems = obs.Default().Counter("parallel.dynamic.items")
)

// Pool is a bounded fork-join executor. The zero value runs everything
// serially on the caller's goroutine; construct with New to size it. A
// Pool is a value and holds no goroutines between calls.
type Pool struct {
	workers int
}

// New returns a pool with the given parallelism. workers <= 0 selects
// runtime.GOMAXPROCS(0).
func New(workers int) Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return Pool{workers: workers}
}

// Workers returns the pool's parallelism (at least 1).
func (p Pool) Workers() int {
	if p.workers < 1 {
		return 1
	}
	return p.workers
}

// Run partitions [0, n) into one contiguous chunk per worker and invokes
// body(worker, lo, hi) once per non-empty chunk, concurrently, then waits
// for all calls to return. worker identifies the chunk's slot in
// [0, Workers()), so callers can keep per-worker scratch buffers without
// locking. Chunk boundaries depend only on n and Workers(), never on
// timing. With one worker (or n <= 1) the body runs inline on the
// caller's goroutine.
func (p Pool) Run(n int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	runCalls.Inc()
	runItems.Add(int64(n))
	w := p.Workers()
	if w > n {
		w = n
	}
	if w == 1 {
		body(0, 0, n)
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for i := 1; i < w; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(worker, lo, hi int) {
			defer wg.Done()
			body(worker, lo, hi)
		}(i, lo, hi)
	}
	// Chunk 0 runs on the caller's goroutine.
	body(0, 0, chunk)
	wg.Wait()
}

// RunCtx is Run with cooperative cancellation: each chunk checks ctx
// before it starts, and the call returns ctx.Err() if any chunk was
// skipped. Chunk boundaries are identical to Run's, and a nil error
// guarantees every chunk ran to completion, so uncancelled results are
// bit-identical to Run. On cancellation the output is partial and the
// caller must discard it — RunCtx aborts promptly between chunks but
// never interrupts a chunk mid-flight.
func (p Pool) RunCtx(ctx context.Context, n int, body func(worker, lo, hi int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	var skipped atomic.Bool
	p.Run(n, func(worker, lo, hi int) {
		if ctx.Err() != nil {
			skipped.Store(true)
			return
		}
		body(worker, lo, hi)
	})
	if skipped.Load() {
		return ctx.Err()
	}
	return nil
}

// ForEachDynamic runs body(i) for every i in [0, n), handing indices to
// workers one at a time in claim order. Use when items have very uneven
// costs (e.g. one model per index). Which worker executes which index
// depends on timing, so the determinism contract here is per-item: body
// must write only state owned by i.
func (p Pool) ForEachDynamic(n int, body func(i int)) {
	if n <= 0 {
		return
	}
	dynamicCalls.Inc()
	dynamicItems.Add(int64(n))
	w := p.Workers()
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var next atomic.Int64
	run := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			body(i)
		}
	}
	var wg sync.WaitGroup
	for g := 1; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}
