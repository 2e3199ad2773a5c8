GO ?= go
FUZZTIME ?= 10s

.PHONY: build test loc verify chaos fuzz-smoke bench bench-json bench-data bench-ingest bench-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# loc prints the non-test Go line count that ROADMAP tracks: every
# tracked .go file except _test.go files and the perfbench/ harness.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^perfbench/' | xargs cat | wc -l

# verify is the pre-submit gate: gofmt cleanliness and static checks,
# the race detector on the concurrency-bearing packages (live extension
# of one shared region, the feature builder that concurrent fits gather
# their rows from, the parallel training engine, the pool-fanned
# eval kernels, the kernel-conformance harness, the metrics registry,
# the train-singleflight + snapshot HTTP layer with its once-encoded
# bodies and raw-body request memo, and the experiment fan-out), the
# kerneltest differential
# harness (Dot, MatVec and the AUC kernel bitwise vs naive oracles),
# the allocation-regression gates on the AUC kernel (below and above
# its radix-sort cutoff), the ES's
# per-generation negative resample, the exact allocation count of one
# serial ES fit with its set build, the serve
# ranking/plan/bulk-rank/bulk-plan repeat paths and the request-body
# memo hit, the flat per-event ingest allocation count, the exact
# allocation counts of one serial 100-event ingest batch and of four
# serial shard retrains
# (run without -race, which inflates allocation counts), the chaos
# suite, and a short fuzz pass over the CSV parsers, the AUC kernel
# differential and the serve JSON writers.
verify:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	$(GO) vet ./...
	$(GO) test -race ./internal/dataset/... ./internal/feature/... ./internal/parallel/... ./internal/core/... ./internal/eval/... ./internal/kerneltest/... ./internal/obs/... ./internal/serve/... ./internal/experiments/... ./internal/wal/...
	$(GO) test ./internal/kerneltest -count=1
	$(GO) test ./internal/eval -run='^(TestAUCKernelZeroAlloc|TestAUCKernelRadixPathZeroAlloc)$$' -count=1
	$(GO) test ./internal/core -run='^(TestFitnessBatchResampleZeroAlloc|TestDirectAUCFitSerialAllocs)$$' -count=1
	$(GO) test ./internal/serve -run='^(TestRankingCacheHitZeroAlloc|TestPlanCacheHitZeroAlloc|TestBodyMemoHitZeroAlloc|TestBulkRankCacheHitZeroAlloc|TestBulkPlanCacheHitZeroAlloc|TestEventsAllocsFlatWithHistory|TestEventsIngestBatchSerialAllocs|TestShardRebuildSerialAllocs)$$' -count=1
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
# FuzzJSONWritersMatchStdlib holds the serve layer's hand-written JSON
# string and float writers to json.Marshal.
fuzz-smoke:
	$(GO) test ./internal/dataset -run='^$$' -fuzz='^FuzzReadPipes$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/dataset -run='^$$' -fuzz='^FuzzReadFailures$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/eval -run='^$$' -fuzz='^FuzzAUCKernelVsNaive$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/colfmt -run='^$$' -fuzz='^FuzzReadDataset$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal -run='^$$' -fuzz='^FuzzWALReplay$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal -run='^$$' -fuzz='^FuzzFrameDecode$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/serve -run='^$$' -fuzz='^FuzzJSONWritersMatchStdlib$$' -fuzztime=$(FUZZTIME)

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# The benchmark suites, each defined once: bench-json, bench-data and
# bench-ingest record them into BENCH_*.json, and bench-check reruns the
# same commands against those files.
BENCH_CORE = { $(GO) test -run='^$$' -bench='BenchmarkFitnessEval|BenchmarkScoreAllFlat|BenchmarkRankBoostFit|BenchmarkDirectAUCFit' ./internal/core/; \
	$(GO) test -run='^$$' -bench='BenchmarkWeibullFit' ./internal/baseline/; \
	$(GO) test -run='^$$' -bench='BenchmarkAUCKernel|BenchmarkTopK|BenchmarkOrder' ./internal/eval/; \
	$(GO) test -run='^$$' -bench='BenchmarkMatVec|BenchmarkDot' ./internal/linalg/; }
BENCH_SERVE = { $(GO) test -run='^$$' -bench='BenchmarkRankingHandler|BenchmarkPlanHandler|BenchmarkBulkRank|BenchmarkShardRebuild' ./internal/serve/; }
BENCH_DATA = { BENCH_FULL=1 $(GO) test -run='^$$' -bench='BenchmarkColRead|BenchmarkColWrite|BenchmarkConvertCSVToCol|BenchmarkIngest|BenchmarkLiveRebuild' -timeout 60m ./internal/colfmt/; \
	$(GO) test -run='^$$' -bench='BenchmarkReadPipes|BenchmarkReadFailures' ./internal/dataset/; }
BENCH_INGEST = { $(GO) test -run='^$$' -bench='BenchmarkWALAppend|BenchmarkWALReplay' ./internal/wal/; \
	$(GO) test -run='^$$' -bench='BenchmarkEventsIngest' ./internal/serve/; }

# bench-json records the training/serving hot-path benchmarks (the ES
# fitness kernel, at ~1,000 positives and at the full-scale region-A
# batch shape, both matched by the BenchmarkFitnessEval prefix; a whole
# full-scale region-A ES fit with its set build; scoring,
# the RankBoost and Weibull fits, AUC, top-k, a full ranking order and
# the linalg kernels; the serve handlers) as JSON so
# perf can be diffed commit to commit (BENCH_core.json and
# BENCH_serve.json are checked in). Each benchmark runs long enough for
# ns/op to stabilize; steady-state B/op for the scratch-reusing kernels
# shrinks toward zero as iteration counts grow, so treat allocs/op (not
# B/op) as the regression signal.
bench-json:
	$(BENCH_CORE) | $(GO) run ./cmd/benchjson -o BENCH_core.json
	$(BENCH_SERVE) | $(GO) run ./cmd/benchjson -o BENCH_serve.json

# bench-data records the columnar data-plane benchmarks (streaming decode,
# encode, CSV->columnar conversion, feature ingest, live rebuild) at
# 10k/100k/1M rows into BENCH_data.json. BENCH_FULL=1 unlocks the
# 1M-pipe fixture, which takes about a minute of synthesis before
# measurement starts.
bench-data:
	$(BENCH_DATA) | $(GO) run ./cmd/benchjson -o BENCH_data.json

# bench-ingest records the streaming-ingest data plane into
# BENCH_ingest.json: raw WAL append latency per fsync policy (the
# group-commit parallel case included), replay throughput, and the
# /api/events handler end to end.
bench-ingest:
	$(BENCH_INGEST) | $(GO) run ./cmd/benchjson -o BENCH_ingest.json

# bench-check is the pre-release perf gate (NOT part of verify —
# wall-clock numbers are too machine-sensitive for a merge gate): rerun
# the core, data, ingest and serve hot-path benchmarks and fail if any is
# more than BENCH_TOL slower than its checked-in BENCH_*.json, if its
# allocs/op grew at all, or if a recorded benchmark disappeared. Refresh
# the baselines with bench-json, bench-data and bench-ingest.
BENCH_TOL ?= 0.30
bench-check:
	$(BENCH_CORE) | $(GO) run ./cmd/benchjson -check BENCH_core.json -tol $(BENCH_TOL)
	$(BENCH_DATA) | $(GO) run ./cmd/benchjson -check BENCH_data.json -tol $(BENCH_TOL)
	$(BENCH_INGEST) | $(GO) run ./cmd/benchjson -check BENCH_ingest.json -tol $(BENCH_TOL)
	$(BENCH_SERVE) | $(GO) run ./cmd/benchjson -check BENCH_serve.json -tol $(BENCH_TOL)
