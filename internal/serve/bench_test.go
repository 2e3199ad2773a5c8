package serve

// Serve-layer hot-path benchmarks: the ranking and plan handlers driven
// exactly as a request would hit them (path value set, query string
// parsed, body decoded), but through a no-op ResponseWriter so the
// numbers measure the handler, not the test recorder. `make bench-json`
// records these into BENCH_serve.json; EXPERIMENTS.md tracks the
// before/after history.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro"
	"repro/internal/wal"
)

// nopWriter discards the response body and reuses one header map across
// iterations, so a zero-allocation handler path benches at 0 allocs/op.
type nopWriter struct {
	h http.Header
}

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopWriter) WriteHeader(int)             {}

// benchServer builds a server over a mid-size synthetic region and
// trains the cheap heuristic model once, so the benchmarks measure the
// steady-state read path.
func benchServer(b *testing.B) *Server {
	b.Helper()
	net, err := pipefail.GenerateRegion("A", 7, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(net, log.New(io.Discard, "", 0), pipefail.WithESGenerations(4))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.get(context.Background(), "Heuristic-Age"); err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkRankingHandler(b *testing.B) {
	s := benchServer(b)
	req := httptest.NewRequest("GET", "/api/models/Heuristic-Age/ranking?top=100", nil)
	req.SetPathValue("name", "Heuristic-Age")
	w := &nopWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.handleRanking(w, req)
	}
}

// replayBody is a rewindable no-op-Close request body, so POST
// iterations reuse one reader instead of allocating a NopCloser per
// request — required for the zero-alloc cached-plan measurements.
type replayBody struct{ r *bytes.Reader }

func (rb *replayBody) Read(p []byte) (int, error) { return rb.r.Read(p) }
func (rb *replayBody) Close() error               { return nil }
func (rb *replayBody) rewind()                    { rb.r.Seek(0, io.SeekStart) }

func planBenchRequest() (*http.Request, *replayBody) {
	rb := &replayBody{r: bytes.NewReader([]byte(`{"model":"Heuristic-Age","budget_km":10}`))}
	req := httptest.NewRequest("POST", "/api/plan", nil)
	req.Body = rb
	return req, rb
}

// BenchmarkPlanHandlerCold measures a first plan request: the body is
// memoized, but nothing of its last response is, so every request
// encodes its totals and hashes its body for its ETag and
// Content-Length.
func BenchmarkPlanHandlerCold(b *testing.B) {
	s := benchServer(b)
	req, rb := planBenchRequest()
	w := &nopWriter{h: make(http.Header)}
	s.handlePlan(w, req) // memoize the decoded body
	memo := s.planBodies.m[`{"model":"Heuristic-Age","budget_km":10}`]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memo.last.Store(nil)
		rb.rewind()
		s.handlePlan(w, req)
	}
}

// BenchmarkPlanHandlerCached measures the steady state: the plan's pipe
// list cut from the snapshot's prefix, followed by its memoized totals
// under its memoized headers, with zero allocations.
func BenchmarkPlanHandlerCached(b *testing.B) {
	s := benchServer(b)
	req, rb := planBenchRequest()
	w := &nopWriter{h: make(http.Header)}
	rb.rewind()
	s.handlePlan(w, req) // memoize the body and its headers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.rewind()
		s.handlePlan(w, req)
	}
}

// bulkBenchRequest builds a reusable POST /api/bulk/rank request.
func bulkBenchRequest(body string) (*http.Request, *replayBody) {
	rb := &replayBody{r: bytes.NewReader([]byte(body))}
	req := httptest.NewRequest("POST", "/api/bulk/rank", nil)
	req.Body = rb
	return req, rb
}

// BenchmarkBulkRankCold measures a first bulk rank request against a
// published snapshot: the snapshot's encoded ranking is dropped before
// every request, so each one encodes the entries it serves.
func BenchmarkBulkRankCold(b *testing.B) {
	s := benchServer(b)
	tm, err := s.get(context.Background(), "Heuristic-Age")
	if err != nil {
		b.Fatal(err)
	}
	req, rb := bulkBenchRequest(`{"model":"Heuristic-Age","top":100}`)
	w := &nopWriter{h: make(http.Header)}
	rb.rewind()
	s.handleBulkRank(w, req) // size the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.rank.Store(nil)
		rb.rewind()
		s.handleBulkRank(w, req)
	}
}

// BenchmarkBulkRankCached measures the steady state the alloc gate
// locks: phase 1 resolves every segment inline and the writer splices
// the snapshot's encoded bytes — no goroutines, no channels, no heap.
func BenchmarkBulkRankCached(b *testing.B) {
	s := benchServer(b)
	req, rb := bulkBenchRequest(`{"model":"Heuristic-Age","top":100}`)
	w := &nopWriter{h: make(http.Header)}
	rb.rewind()
	s.handleBulkRank(w, req) // size the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.rewind()
		s.handleBulkRank(w, req)
	}
}

// rebuildBenchServer returns a two-shard registry (regions A and B at
// scale 0.04, four ES generations) with the default model and
// Heuristic-Age published on both shards.
func rebuildBenchServer(tb testing.TB) *Server {
	netA, err := pipefail.GenerateRegion("A", 7, 0.04)
	if err != nil {
		tb.Fatal(err)
	}
	netB, err := pipefail.GenerateRegion("B", 8, 0.04)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := NewMulti([]*pipefail.Network{netA, netB}, log.New(io.Discard, "", 0), pipefail.WithESGenerations(4))
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	for _, sh := range s.shards {
		for _, name := range []string{string(s.defaultModel), "Heuristic-Age"} {
			if _, err := s.getShard(ctx, sh, name); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return s
}

// BenchmarkShardRebuildConcurrent measures one forced dispatch over a
// two-shard registry with both models published: four retrains, each on
// its own worker slot, each republishing atomically.
func BenchmarkShardRebuildConcurrent(b *testing.B) {
	s := rebuildBenchServer(b)
	targets := forcedTargets(s)
	s.rebuildSlots = newRebuildSlots(len(targets))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deferred, wait := s.dispatch(targets)
		wait()
		if len(deferred) > 0 {
			b.Fatalf("%d targets deferred with a slot per target", len(deferred))
		}
	}
}

// rebuildSerialAllocs is the exact allocation count of the four
// retrains TestShardRebuildSerialAllocs runs.
const rebuildSerialAllocs = 650

// TestShardRebuildSerialAllocs is BenchmarkShardRebuildConcurrent's
// allocation gate with the scheduling taken out: the same four retrains,
// in a fixed order, one at a time on one rebuild slot, with
// AllocsPerRun's GOMAXPROCS of 1 sizing every fit's worker pool, and
// garbage collection pinned to the start of each run. The concurrent
// benchmark's count moves with GOMAXPROCS, goroutine timing and when
// collections land; this one must equal rebuildSerialAllocs exactly.
func TestShardRebuildSerialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := rebuildBenchServer(t)
	var targets []rebuildTarget
	for _, sh := range s.shards {
		for _, name := range []string{string(s.defaultModel), "Heuristic-Age"} {
			targets = append(targets, rebuildTarget{sh: sh, name: name})
		}
	}
	s.rebuildSlots = newRebuildSlots(1)
	// A collection empties every sync.Pool on the path, which then
	// allocates afresh, so collections run only at the top of each run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := testing.AllocsPerRun(5, func() {
		runtime.GC()
		for _, tg := range targets {
			deferred, wait := s.dispatch([]rebuildTarget{tg})
			wait()
			if len(deferred) > 0 {
				t.Fatalf("%s/%s deferred on a free slot", tg.sh.region, tg.name)
			}
		}
	})
	if got != rebuildSerialAllocs {
		t.Fatalf("%v allocs per four serial retrains, want exactly %d", got, rebuildSerialAllocs)
	}
}

// benchEventsIngest drives POST /api/events through the handler with a
// fresh single-event body per iteration. Applying an event costs the
// same however many came before it, so the default time-based
// iteration count measures the steady state.
func benchEventsIngest(b *testing.B, sync wal.SyncPolicy) {
	net, err := pipefail.GenerateRegion("A", 7, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(net, log.New(io.Discard, "", 0), pipefail.WithESGenerations(4))
	if err != nil {
		b.Fatal(err)
	}
	if err := s.SetEventLog(EventLogConfig{Dir: b.TempDir(), Sync: sync}); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.closeEventLogs)
	pipes := s.def.data.Pipes()
	year := s.def.data.ObservedTo + 1
	// One checked warmup so a broken handler fails loudly instead of
	// benchmarking an error path.
	rec := httptest.NewRecorder()
	s.handleEvents(rec, httptest.NewRequest("POST", "/api/events",
		strings.NewReader(fmt.Sprintf(`{"id":"bench-warm","pipe_id":%q,"year":%d,"day":1}`, pipes[0].ID, year))))
	if rec.Code != http.StatusOK {
		b.Fatalf("warmup status %d: %s", rec.Code, rec.Body)
	}
	w := &nopWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"id":"bench-%d","pipe_id":%q,"year":%d,"day":%d}`,
			i, pipes[i%len(pipes)].ID, year, i%366+1)
		s.handleEvents(w, httptest.NewRequest("POST", "/api/events", strings.NewReader(body)))
	}
}

func BenchmarkEventsIngestAlways(b *testing.B) { benchEventsIngest(b, wal.SyncAlways) }
func BenchmarkEventsIngestNever(b *testing.B)  { benchEventsIngest(b, wal.SyncNever) }

// BenchmarkEventsIngestBatch measures the NDJSON batch path: one
// request carrying 100 events, amortizing decode, admission and fsync.
func BenchmarkEventsIngestBatch(b *testing.B) {
	net, err := pipefail.GenerateRegion("A", 7, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(net, log.New(io.Discard, "", 0), pipefail.WithESGenerations(4))
	if err != nil {
		b.Fatal(err)
	}
	if err := s.SetEventLog(EventLogConfig{Dir: b.TempDir(), Sync: wal.SyncAlways}); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.closeEventLogs)
	pipes := s.def.data.Pipes()
	year := s.def.data.ObservedTo + 1
	w := &nopWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		for j := 0; j < 100; j++ {
			fmt.Fprintf(&buf, "{\"id\":\"batch-%d-%d\",\"pipe_id\":%q,\"year\":%d,\"day\":%d}\n",
				i, j, pipes[j%len(pipes)].ID, year, j%366+1)
		}
		req := httptest.NewRequest("POST", "/api/events", &buf)
		req.Header.Set("Content-Type", "application/x-ndjson")
		s.handleEvents(w, req)
	}
}

// ingestBatchSerialAllocs is the exact allocation count of one
// 100-event batch in TestEventsIngestBatchSerialAllocs.
const ingestBatchSerialAllocs = 1138

// TestEventsIngestBatchSerialAllocs is BenchmarkEventsIngestBatch's
// allocation gate with the noise taken out: one shard, one goroutine,
// the same 100-line NDJSON batch every run (event IDs differ only in a
// fixed-width run number, so dedup admits every line), requests built
// outside the measurement, and garbage collection only at the top of
// each run. The benchmark's count moves with when collections empty the
// pools on the path; this one must equal ingestBatchSerialAllocs.
func TestEventsIngestBatchSerialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s, _ := newEventServer(t, t.TempDir(), EventLogConfig{Sync: wal.SyncAlways})
	pipes := s.def.data.Pipes()
	year := s.def.data.ObservedTo + 1
	const runs = 20
	reqs := make([]*http.Request, runs+1) // AllocsPerRun warms up once
	for i := range reqs {
		var buf bytes.Buffer
		for j := 0; j < 100; j++ {
			fmt.Fprintf(&buf, "{\"id\":\"batch-%02d-%03d\",\"pipe_id\":%q,\"year\":%d,\"day\":%d}\n",
				i, j, pipes[j%len(pipes)].ID, year, j%366+1)
		}
		reqs[i] = httptest.NewRequest("POST", "/api/events", &buf)
		reqs[i].Header.Set("Content-Type", "application/x-ndjson")
	}
	w := &nopWriter{h: make(http.Header)}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		runtime.GC()
		s.handleEvents(w, reqs[i])
		i++
	})
	if applied := s.def.eventSeqNow(); applied != 100*(runs+1) {
		t.Fatalf("applied %d events, want %d", applied, 100*(runs+1))
	}
	if got != ingestBatchSerialAllocs {
		t.Fatalf("%v allocs per 100-event batch, want exactly %d", got, ingestBatchSerialAllocs)
	}
}
