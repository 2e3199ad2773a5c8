GO ?= go
FUZZTIME ?= 10s

.PHONY: build test verify chaos fuzz-smoke bench bench-json bench-data bench-ingest bench-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the pre-submit gate: gofmt cleanliness and static checks,
# the race detector on the concurrency-bearing packages (the parallel
# training engine, the pool-fanned eval kernels, the kernel-conformance
# harness, the metrics registry, the train-singleflight + snapshot HTTP
# layer with its single cached-response resolver and raw-body request
# memo, the response cache and the experiment fan-out), the kerneltest
# differential harness (Dot, MatVec and the AUC kernel bitwise vs naive
# oracles), the allocation-regression gates on the AUC kernel, the
# serve ranking/plan/bulk-rank/bulk-plan cached paths and the
# request-body memo hit (run without -race, which inflates allocation
# counts), the chaos suite, and a short fuzz pass over the CSV parsers
# and the AUC kernel differential.
verify:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	$(GO) vet ./...
	$(GO) test -race ./internal/parallel/... ./internal/core/... ./internal/eval/... ./internal/kerneltest/... ./internal/obs/... ./internal/serve/... ./internal/respcache/... ./internal/experiments/... ./internal/wal/...
	$(GO) test ./internal/kerneltest -count=1
	$(GO) test ./internal/eval -run='^TestAUCKernelZeroAlloc$$' -count=1
	$(GO) test ./internal/serve -run='^(TestRankingCacheHitZeroAlloc|TestPlanCacheHitZeroAlloc|TestBodyMemoHitZeroAlloc|TestBulkRankCacheHitZeroAlloc|TestBulkPlanCacheHitZeroAlloc)$$' -count=1
	$(GO) test ./internal/colfmt -run='^(TestReadAllocsRowIndependent|TestIngestAllocsRowIndependent)$$' -count=1
	$(MAKE) chaos
	$(MAKE) fuzz-smoke

# chaos runs the fault-injection suite under the race detector: the
# internal/faulty harness (listener cuts, delayed clients), the serve
# chaos tests that combine network faults with training failures,
# panics, hangs, shedding and a mid-storm drain, and the WAL crash
# matrix (deterministic kills at labeled append/rotate/sync points, with
# the exactly-once and bit-identical-recovery invariants).
chaos:
	$(GO) test -race ./internal/faulty/...
	$(GO) test -race -run='^TestChaos' -count=1 ./internal/serve/
	$(GO) test -race -run='^TestCrashMatrix|^TestRotateCrashRecovers|^TestTornTail|^TestBitFlipped|^TestCorruptInterior' -count=1 ./internal/wal/

# fuzz-smoke runs each fuzzer briefly (FUZZTIME per target) — enough to
# replay the corpus and shake out shallow regressions without holding up
# the gate. FuzzAUCKernelVsNaive is the kernel differential: arbitrary
# score/label bytes must produce bitwise-identical AUCs from the
# counting-rank kernel, the legacy sort kernel and the pairwise oracle.
fuzz-smoke:
	$(GO) test ./internal/dataset -run='^$$' -fuzz='^FuzzReadPipes$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/dataset -run='^$$' -fuzz='^FuzzReadFailures$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/eval -run='^$$' -fuzz='^FuzzAUCKernelVsNaive$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/colfmt -run='^$$' -fuzz='^FuzzReadDataset$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal -run='^$$' -fuzz='^FuzzWALReplay$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal -run='^$$' -fuzz='^FuzzFrameDecode$$' -fuzztime=$(FUZZTIME)

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# bench-json records the training/serving hot-path benchmarks as JSON so
# perf can be diffed commit to commit (BENCH_core.json and
# BENCH_serve.json are checked in). Each benchmark runs long enough for
# ns/op to stabilize; steady-state B/op for the scratch-reusing kernels
# shrinks toward zero as iteration counts grow, so treat allocs/op (not
# B/op) as the regression signal.
bench-json:
	{ $(GO) test -run='^$$' -bench='BenchmarkFitnessEval|BenchmarkScoreAllFlat' ./internal/core/; \
	  $(GO) test -run='^$$' -bench='BenchmarkAUCKernel|BenchmarkTopK' ./internal/eval/; \
	  $(GO) test -run='^$$' -bench='BenchmarkMatVec|BenchmarkDot' ./internal/linalg/; } \
	| $(GO) run ./cmd/benchjson -o BENCH_core.json
	{ $(GO) test -run='^$$' -bench='BenchmarkRankingHandler|BenchmarkPlanHandler|BenchmarkBulkRank|BenchmarkShardRebuild' ./internal/serve/; \
	  $(GO) test -run='^$$' -bench='BenchmarkRespCache' ./internal/respcache/; } \
	| $(GO) run ./cmd/benchjson -o BENCH_serve.json

# bench-check is the pre-release perf gate (NOT part of verify —
# wall-clock numbers are too machine-sensitive for a merge gate): rerun
# the core, data, ingest and serve hot-path benchmarks and fail if any is
# more than BENCH_TOL slower than its checked-in BENCH_*.json, if its
# allocs/op grew at all, or if a recorded benchmark disappeared. Refresh
# the core and serve baselines with bench-json.
# bench-data records the columnar data-plane benchmarks (streaming decode,
# encode, CSV->columnar conversion, feature ingest) at 10k/100k/1M rows
# into BENCH_data.json. BENCH_FULL=1 unlocks the 1M-pipe fixture, which
# takes about a minute of synthesis before measurement starts.
bench-data:
	{ BENCH_FULL=1 $(GO) test -run='^$$' -bench='BenchmarkColRead|BenchmarkColWrite|BenchmarkConvertCSVToCol|BenchmarkIngest' -timeout 60m ./internal/colfmt/; \
	  $(GO) test -run='^$$' -bench='BenchmarkReadPipes|BenchmarkReadFailures' ./internal/dataset/; } \
	| $(GO) run ./cmd/benchjson -o BENCH_data.json

# bench-ingest records the streaming-ingest data plane into
# BENCH_ingest.json: raw WAL append latency per fsync policy (the
# group-commit parallel case included), replay throughput, and the
# /api/events handler end to end. The serve-side benchmarks run a fixed
# iteration count: accepted events accumulate in the live overlays and
# the per-request drift scan is O(overlay), so time-based auto-scaling
# would measure ever-growing windows instead of the steady state.
bench-ingest:
	{ $(GO) test -run='^$$' -bench='BenchmarkWALAppend|BenchmarkWALReplay' ./internal/wal/; \
	  $(GO) test -run='^$$' -bench='BenchmarkEventsIngest' -benchtime=2000x ./internal/serve/; } \
	| $(GO) run ./cmd/benchjson -o BENCH_ingest.json

BENCH_TOL ?= 0.30
bench-check:
	{ $(GO) test -run='^$$' -bench='BenchmarkFitnessEval|BenchmarkScoreAllFlat' ./internal/core/; \
	  $(GO) test -run='^$$' -bench='BenchmarkAUCKernel|BenchmarkTopK' ./internal/eval/; \
	  $(GO) test -run='^$$' -bench='BenchmarkMatVec|BenchmarkDot' ./internal/linalg/; } \
	| $(GO) run ./cmd/benchjson -check BENCH_core.json -tol $(BENCH_TOL)
	{ BENCH_FULL=1 $(GO) test -run='^$$' -bench='BenchmarkColRead|BenchmarkColWrite|BenchmarkConvertCSVToCol|BenchmarkIngest' -timeout 60m ./internal/colfmt/; \
	  $(GO) test -run='^$$' -bench='BenchmarkReadPipes|BenchmarkReadFailures' ./internal/dataset/; } \
	| $(GO) run ./cmd/benchjson -check BENCH_data.json -tol $(BENCH_TOL)
	{ $(GO) test -run='^$$' -bench='BenchmarkWALAppend|BenchmarkWALReplay' ./internal/wal/; \
	  $(GO) test -run='^$$' -bench='BenchmarkEventsIngest' -benchtime=2000x ./internal/serve/; } \
	| $(GO) run ./cmd/benchjson -check BENCH_ingest.json -tol $(BENCH_TOL)
	{ $(GO) test -run='^$$' -bench='BenchmarkRankingHandler|BenchmarkPlanHandler|BenchmarkBulkRank|BenchmarkShardRebuild' ./internal/serve/; \
	  $(GO) test -run='^$$' -bench='BenchmarkRespCache' ./internal/respcache/; } \
	| $(GO) run ./cmd/benchjson -check BENCH_serve.json -tol $(BENCH_TOL)
