// Command pipeserve runs the HTTP risk service over one or more regional
// networks: rankings, per-pipe risk lookups, and budget-constrained
// inspection plans as JSON, plus streamed NDJSON bulk endpoints that fan
// one request across every region shard.
//
// Usage:
//
//	pipeserve -data data/regionA -addr :8080
//	pipeserve -data data/regionA -data data/regionB   # one shard per dataset
//	pipeserve -data data/nation -shards 8             # split one dataset by district
//	pipeserve -region B -scale 0.25 -addr :8080       # synthetic network
//
// -data accepts any dataset layout the loader sniffs: a CSV directory, a
// columnar directory (dataset.col), or a bare .col file. It is
// repeatable: each path becomes an isolated region shard with its own
// models and response cache. Alternatively -shards N splits a single
// district-structured dataset into N contiguous-district region shards.
// Duplicate region names across inputs are a startup error.
//
// Endpoints:
//
//	GET  /healthz   (liveness: 200 while the process runs)
//	GET  /readyz    (readiness: 503 once shutdown begins)
//	GET  /api/network
//	GET  /api/regions
//	GET  /api/models
//	POST /api/models/{name}/train
//	GET  /api/models/{name}/ranking?top=N
//	GET  /api/pipes/{id}
//	POST /api/plan       {"model": "...", "budget_km": 10}
//	POST /api/bulk/rank  {"regions": [...], "pipe_ids": [...], "top": N}  → NDJSON stream
//	POST /api/bulk/plan  {"regions": [...], "budget_km": 10}              → NDJSON stream
//	POST /api/events     (live failure/renewal ingest; needs -wal-dir)
//	GET  /metrics   (JSON metrics snapshot; disable with -metrics=false)
//
// Streaming ingest: with -wal-dir, POST /api/events accepts one event
// (JSON object) or a batch (NDJSON with Content-Type
// application/x-ndjson). Events are framed into a crash-safe write-ahead
// log and acknowledged only once durable under -wal-sync (always fsyncs
// before the ack — group-committed; interval syncs every
// -wal-sync-interval; never leaves it to the OS). On boot the log
// replays, truncating a torn tail and quarantining corrupt interior
// segments; event IDs deduplicate retries, so every acknowledged event
// is applied exactly once across crashes. Ingested events mark models
// stale for the -rebuild-interval scheduler, which retrains on the
// event-extended window and republishes atomically; /metrics gains
// per-region drift gauges (live-window vs train-time AUC, event counts)
// and WAL health series (backlog, size, fsync latency).
//
// Region-scoped GET endpoints take ?region=NAME; without it the first
// shard answers, so single-region deployments are unchanged.
//
// Ranking, cohort and hotspot responses are served from an in-memory
// encoded-response cache (global budget via -cache-mb, partitioned
// across shards) with strong ETags; clients sending If-None-Match get
// 304 Not-Modified.
//
// -rebuild-interval starts the background rebuild scheduler: each
// interval, shards with no trained default model and snapshots that
// ingested events have made stale retrain in the background (at most
// -rebuild-workers at once) and publish atomically without blocking
// reads.
//
// Resilience: SIGINT/SIGTERM triggers a graceful shutdown — readiness
// flips to 503, in-flight training and scheduled rebuilds are
// cancelled, open connections drain (bounded by -drain-timeout) and the
// process exits 0. -max-inflight sheds requests past a concurrency cap
// with 503 + Retry-After; -request-timeout bounds each API request.
// With -state-dir, trained linear models persist across restarts and
// are served warm on boot (see DESIGN.md, "Failure modes & resilience").
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/wal"
)

// multiFlag collects a repeatable string flag (-data a -data b).
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	os.Exit(run())
}

// run is main with an exit code: a clean signal-initiated shutdown is
// 0, anything else is 1. Deferred cleanup still runs on every path,
// which a bare os.Exit in main would skip.
func run() int {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("pipeserve: ")

	var data multiFlag
	flag.Var(&data, "data", "dataset path: CSV directory, columnar directory or .col file (repeatable: one region shard per path)")
	shards := flag.Int("shards", 1, "split a single district-structured dataset into this many region shards")
	rebuildInterval := flag.Duration("rebuild-interval", 0, "background rebuild scheduler period, e.g. 10m (0 = off)")
	rebuildWorkers := flag.Int("rebuild-workers", 2, "max concurrent scheduled rebuilds (0 = GOMAXPROCS)")
	region := flag.String("region", "A", "synthetic region preset when -data is unset")
	seed := flag.Int64("seed", 1, "generator / learner seed")
	scale := flag.Float64("scale", 0.25, "synthetic region scale")
	addr := flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
	metrics := flag.Bool("metrics", true, "expose the GET /metrics observability endpoint")
	cacheMB := flag.Int64("cache-mb", serve.DefaultCacheBytes>>20, "response cache budget in MiB (encoded ranking/cohort/hotspot bodies)")
	stateDir := flag.String("state-dir", "", "persist trained linear models here for warm restarts (empty = off)")
	walDir := flag.String("wal-dir", "", "durable write-ahead event log root enabling POST /api/events (empty = off)")
	walSync := flag.String("wal-sync", "always", "event log fsync policy: always (fsync before ack), interval, or never")
	walSyncInterval := flag.Duration("wal-sync-interval", 100*time.Millisecond, "fsync period under -wal-sync=interval")
	walSegmentMB := flag.Int64("wal-segment-mb", 8, "event log segment rotation threshold in MiB")
	walMaxBacklogMB := flag.Int64("wal-max-backlog-mb", 16, "unsynced event-log backlog before ingest answers 429")
	eventWindowDays := flag.Int("event-window-days", 366, "rolling live-event window for the drift gauges, in days")
	maxInflight := flag.Int64("max-inflight", 0, "shed API requests past this many in flight with 503 (0 = unlimited)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request deadline on API routes, e.g. 30s (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for open connections to finish")
	flag.Parse()
	if *cacheMB < 1 {
		log.Printf("-cache-mb must be >= 1, got %d", *cacheMB)
		return 1
	}

	var networks []*pipefail.Network
	if len(data) > 0 {
		for _, path := range data {
			network, err := pipefail.LoadNetwork(path)
			if err != nil {
				log.Print(err)
				return 1
			}
			networks = append(networks, network)
		}
	} else {
		network, err := pipefail.GenerateRegion(*region, *seed, *scale)
		if err != nil {
			log.Print(err)
			return 1
		}
		networks = append(networks, network)
	}
	if *shards > 1 {
		if len(networks) != 1 {
			log.Printf("-shards needs exactly one dataset, got %d", len(networks))
			return 1
		}
		split, err := dataset.SplitDistricts(networks[0], *shards)
		if err != nil {
			log.Print(err)
			return 1
		}
		networks = split
	}
	for _, network := range networks {
		log.Printf("serving region %s: %d pipes, %d failures", network.Region, network.NumPipes(), network.NumFailures())
	}

	// NewMulti fails fast on duplicate region names across -data inputs —
	// a silent last-write-wins registry would serve the wrong data.
	s, err := serve.NewMulti(networks, log.Default(), pipefail.WithSeed(*seed))
	if err != nil {
		log.Print(err)
		return 1
	}
	s.SetResponseCacheBytes(*cacheMB << 20)
	s.SetMaxInflight(*maxInflight)
	s.SetRequestTimeout(*requestTimeout)
	// The event log opens (and replays) before the state dir restores, so
	// warm-restored models rank against the live event-extended pipeline
	// and reproduce the ETags a retrain would.
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			log.Print(err)
			return 1
		}
		if err := s.SetEventLog(serve.EventLogConfig{
			Dir:             *walDir,
			Sync:            policy,
			SyncInterval:    *walSyncInterval,
			SegmentBytes:    *walSegmentMB << 20,
			MaxBacklogBytes: *walMaxBacklogMB << 20,
			WindowDays:      *eventWindowDays,
		}); err != nil {
			log.Print(err)
			return 1
		}
	}
	if err := s.SetStateDir(*stateDir); err != nil {
		log.Print(err)
		return 1
	}
	// After SetStateDir so warm-restored snapshots count as freshly
	// built and the first pass does not immediately retrain them.
	s.StartRebuildScheduler(*rebuildInterval, *rebuildWorkers)
	handler := s.Handler()
	if !*metrics {
		handler = withoutMetrics(handler)
	}
	// Listen explicitly (instead of ListenAndServe) so :0 resolves to a
	// real port before the "listening on" line — the e2e test and local
	// scripting both scrape the bound address from it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Print(err)
		return 1
	}
	srv := &http.Server{
		Handler: handler,
		// Header/body read, write and idle bounds: a stalled or
		// malicious peer cannot pin a connection (and its goroutine)
		// forever. WriteTimeout is generous because POST .../train
		// responses wait on a cold training run.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      10 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	// SIGINT/SIGTERM → graceful shutdown. The signal context flips once;
	// a second signal kills the process the default way (signal.Stop in
	// NotifyContext's cancel restores default handling after the first).
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	log.Printf("listening on %s", ln.Addr())

	select {
	case err := <-serveErr:
		// Serve only returns on listener failure here (Shutdown below is
		// the ErrServerClosed path, which this select's other arm owns).
		log.Printf("serve: %v", err)
		return 1
	case <-sigCtx.Done():
	}

	log.Printf("shutdown: signal received, draining (timeout %s)", *drainTimeout)
	s.BeginShutdown() // readiness 503, shed new work, cancel in-flight training
	shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := srv.Shutdown(shCtx); err != nil {
		log.Printf("shutdown: drain incomplete: %v", err)
		code = 1
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
		code = 1
	}
	log.Printf("shutdown: complete")
	return code
}

// withoutMetrics hides GET /metrics when the flag disables it.
func withoutMetrics(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			http.NotFound(w, r)
			return
		}
		h.ServeHTTP(w, r)
	})
}
