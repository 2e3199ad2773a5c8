// Package serve exposes a trained-model service over HTTP: a water utility
// integration point that loads one or more regional networks, trains
// models on demand, and serves rankings, per-pipe risk lookups and
// budget-constrained inspection plans as JSON. Each region is an
// isolated shard (see shard.go); bulk endpoints fan one request across
// shards and stream NDJSON back (see bulk.go); a background scheduler
// keeps shards warm (see sched.go). It is deliberately stdlib-only
// (net/http with Go 1.22 method patterns).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/respcache"
)

// DefaultCacheBytes is the response-cache budget a new Server starts
// with; cmd/pipeserve overrides it via the -cache-mb flag.
const DefaultCacheBytes = 32 << 20

// Server wires one or more regional networks into an http.Handler.
// All handlers are safe for concurrent use; model training is
// singleflighted per (shard, model name): the first request trains,
// concurrent requests for the same model block on the in-flight run and
// share its outcome instead of being refused.
//
// The read path is lock-free: each shard's trained models live in an
// immutable copy-on-write map behind an atomic pointer (published under
// the shard mutex, read with a single atomic load), each pointing at a
// frozen modelSnapshot (see snapshot.go). Encoded
// ranking/cohort/hotspot responses are replayed from per-shard
// size-bounded respcache LRUs, with 304 Not-Modified served off the
// snapshot ETag.
//
// Every route is wrapped in metrics middleware (request counter, latency
// histogram, error counter, in-flight gauge) recording into the default
// obs registry, which GET /metrics exposes as a JSON snapshot; DESIGN.md
// documents the catalog.
type Server struct {
	// shards is the immutable fan-out order; byRegion indexes it by
	// region name; def (= shards[0]) serves every request that names no
	// region, so a single-region deployment behaves exactly as before.
	shards   []*shard
	byRegion map[string]*shard
	def      *shard

	log *log.Logger

	// trainFn runs one training pass on one shard; it defaults to
	// (*Server).train and is a seam for tests that need to inject
	// training failures, panics or hangs. It must honor ctx cancellation
	// for prompt aborts.
	trainFn func(ctx context.Context, sh *shard, name string) (*modelSnapshot, error)

	metrics serveMetrics

	// lifecycle is the context every training run (and the rebuild
	// scheduler) derives from; BeginShutdown cancels it, aborting
	// in-flight training.
	lifecycle       context.Context
	cancelLifecycle context.CancelFunc
	// draining flips once at BeginShutdown: /readyz turns 503 and
	// sheddable routes refuse new work with 503 + Retry-After while the
	// http.Server drains connections.
	draining atomic.Bool

	// maxInflight caps concurrently served requests on sheddable routes
	// (0 = unlimited); inflightReqs is the current count against the cap.
	maxInflight  int64
	inflightReqs atomic.Int64
	// requestTimeout bounds each sheddable request's context (0 = none).
	requestTimeout time.Duration

	// stateDir, when non-empty, is the root under which trained linear
	// models are persisted for warm restarts (see state.go); each shard
	// holds its own subdirectory in shard.stateDir.
	stateDir string

	// defaultModel is the model a plan request with no "model" field
	// resolves to, resolved once at construction — pipefail.Models()
	// allocates its slice per call, which the zero-alloc plan path
	// cannot afford.
	defaultModel string

	// planBodies and bulkBodies memoize decoded plan and bulk request
	// bodies by their raw bytes (see bodymemo.go).
	planBodies bodyMemo[planRequest, *planRequest]
	bulkBodies bodyMemo[bulkRequest, *bulkRequest]

	// pool fans bulk-request misses and scheduler rebuilds across
	// shards; sized to GOMAXPROCS at construction.
	pool parallel.Pool

	// routes records every registered route and whether it passes the
	// shed/deadline middleware; a test locks the list so new routes
	// cannot silently bypass shedding.
	routes []routeSpec

	// eventsOn flips once SetEventLog wires the streaming-ingest WALs;
	// POST /api/events answers 503 until then (see events.go).
	eventsOn bool

	// Rebuild scheduler state (see sched.go).
	schedOn       atomic.Bool
	schedInterval time.Duration
	schedPool     parallel.Pool
}

// routeSpec is one registered route: its mux pattern, its metric name,
// and whether it passes the shed/deadline middleware (everything but
// the liveness/readiness probes must).
type routeSpec struct {
	pattern   string
	name      string
	sheddable bool
}

// serveMetrics caches the singleflight/in-flight metric handles so the
// request path never does a registry lookup.
type serveMetrics struct {
	inflight             *obs.Gauge
	sfHits               *obs.Counter // waiters that joined an in-flight run
	sfMisses             *obs.Counter // requests that started a training run
	sfCached             *obs.Counter // requests served from the trained cache
	trainFailures        *obs.Counter
	trainPanics          *obs.Counter // training panics contained into failures
	trainCancelled       *obs.Counter // training runs aborted via context
	handlerPanics        *obs.Counter // handler panics recovered into 500s
	shedCapacity         *obs.Counter // 503s from the in-flight cap
	shedDraining         *obs.Counter // 503s issued while draining
	planCacheHits        *obs.Counter // /api/plan responses replayed from cache
	planCacheMisses      *obs.Counter // /api/plan responses computed and cached
	planPrefixBuilds     *obs.Counter // plan.BuildPrefix runs for non-default cost models
	stateSaved           *obs.Counter // models persisted to the state dir
	stateRestored        *obs.Counter // models reloaded on warm restart
	stateSaveErrs        *obs.Counter // failed persistence attempts
	stateQuarantined     *obs.Counter // unreadable/stale state files set aside
	bulkSegments         *obs.Counter // NDJSON lines written by the bulk endpoints
	bulkSegErrs          *obs.Counter // bulk segments that became error lines
	eventsAccepted       *obs.Counter // ingested events acknowledged durable
	eventsDuplicates     *obs.Counter // ingested events absorbed by ID dedup
	eventsRejected       *obs.Counter // ingest requests refused by validation
	eventsBackpressure   *obs.Counter // ingest 429s from WAL backlog
	eventsFailed         *obs.Counter // ingest 503s from WAL append/sync errors
	eventsReplayRejected *obs.Counter // replayed records skipped by validation
	schedPasses          *obs.Counter // rebuild-scheduler sweeps over the shards
	schedRebuilds        *obs.Counter // scheduled retrains started
	schedFailures        *obs.Counter // scheduled retrains that failed
}

func newServeMetrics() serveMetrics {
	reg := obs.Default()
	return serveMetrics{
		inflight:             reg.Gauge("serve.inflight"),
		sfHits:               reg.Counter("serve.train.singleflight.hits"),
		sfMisses:             reg.Counter("serve.train.singleflight.misses"),
		sfCached:             reg.Counter("serve.train.cached_hits"),
		trainFailures:        reg.Counter("serve.train.failures"),
		trainPanics:          reg.Counter("serve.train.panics"),
		trainCancelled:       reg.Counter("serve.train.cancelled"),
		handlerPanics:        reg.Counter("serve.panics.recovered"),
		shedCapacity:         reg.Counter("serve.shed.capacity"),
		shedDraining:         reg.Counter("serve.shed.draining"),
		planCacheHits:        reg.Counter("serve.plan.cache_hits"),
		planCacheMisses:      reg.Counter("serve.plan.cache_misses"),
		planPrefixBuilds:     reg.Counter("serve.plan.prefix_builds"),
		stateSaved:           reg.Counter("serve.state.saved"),
		stateRestored:        reg.Counter("serve.state.restored"),
		stateSaveErrs:        reg.Counter("serve.state.save_errors"),
		stateQuarantined:     reg.Counter("serve.state.quarantined"),
		bulkSegments:         reg.Counter("serve.bulk.segments"),
		bulkSegErrs:          reg.Counter("serve.bulk.segment_errors"),
		eventsAccepted:       reg.Counter("serve.events.accepted"),
		eventsDuplicates:     reg.Counter("serve.events.duplicates"),
		eventsRejected:       reg.Counter("serve.events.rejected"),
		eventsBackpressure:   reg.Counter("serve.events.backpressure"),
		eventsFailed:         reg.Counter("serve.events.failed"),
		eventsReplayRejected: reg.Counter("serve.events.replay_rejected"),
		schedPasses:          reg.Counter("serve.sched.passes"),
		schedRebuilds:        reg.Counter("serve.sched.rebuilds"),
		schedFailures:        reg.Counter("serve.sched.failures"),
	}
}

// trainJob is the singleflight slot for one model name: done is closed
// when the training run finishes, after tm and err are set. waiters
// (guarded by Server.mu) counts the requests blocked on the run; when the
// last one abandons it — client disconnect or request deadline — cancel
// fires and the run aborts instead of burning CPU for nobody.
type trainJob struct {
	done    chan struct{}
	tm      *modelSnapshot
	err     error
	cancel  context.CancelFunc
	waiters int
}

// New builds a single-shard Server around one network. Options mirror
// pipefail.NewPipeline; logger may be nil (logs are discarded into the
// default logger then).
func New(net *pipefail.Network, logger *log.Logger, opts ...pipefail.PipelineOption) (*Server, error) {
	return NewMulti([]*pipefail.Network{net}, logger, opts...)
}

// NewMulti builds a Server with one shard per network, in the given
// (deterministic) fan-out order. Duplicate region names are a
// configuration error and fail construction — a silent last-write-wins
// registry would serve one region's data under another's name. So are
// distinct names that sanitize to one metric token (North and north):
// the token names each shard's metric series, WAL directory and state
// directory, so those regions would share them. The response-cache
// budget is partitioned equally across the shards.
func NewMulti(nets []*pipefail.Network, logger *log.Logger, opts ...pipefail.PipelineOption) (*Server, error) {
	if len(nets) == 0 {
		return nil, errors.New("serve: no networks given")
	}
	if logger == nil {
		logger = log.Default()
	}
	s := &Server{
		log:          logger,
		metrics:      newServeMetrics(),
		defaultModel: pipefail.Models()[0],
		byRegion:     make(map[string]*shard, len(nets)),
		pool:         parallel.New(0),
	}
	s.lifecycle, s.cancelLifecycle = context.WithCancel(context.Background())
	tokens := make(map[string]int, len(nets)) // metric token → input index
	for i, n := range nets {
		token := obs.SanitizeMetricName(n.Region)
		if j, clash := tokens[token]; clash {
			if prev := nets[j].Region; prev != n.Region {
				return nil, fmt.Errorf("serve: regions %q and %q share the metric and directory name %q (inputs %d and %d)",
					prev, n.Region, token, j+1, i+1)
			}
			return nil, fmt.Errorf("serve: duplicate region %q (inputs %d and %d)", n.Region, j+1, i+1)
		}
		tokens[token] = i
		sh, err := newShard(n, opts...)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, sh)
		s.byRegion[n.Region] = sh
	}
	s.def = s.shards[0]
	s.trainFn = s.train
	s.SetResponseCacheBytes(DefaultCacheBytes)
	return s, nil
}

// cacheNameFor keeps the single-shard cache under the historical
// "serve" metric prefix (respcache.serve.*); multi-shard deployments
// get one series per region (respcache.serve.<region>.*).
func (s *Server) cacheNameFor(region string) string {
	if len(s.shards) == 1 {
		return "serve"
	}
	return "serve." + obs.SanitizeMetricName(region)
}

// SetMaxInflight caps the number of concurrently served requests on the
// sheddable routes (everything but /healthz and /readyz); requests past
// the cap get 503 + Retry-After instead of queueing. n <= 0 removes the
// cap. Call before serving traffic.
func (s *Server) SetMaxInflight(n int64) {
	if n < 0 {
		n = 0
	}
	s.maxInflight = n
}

// SetRequestTimeout bounds each sheddable request's context; training
// started by a timed-out request aborts (unless other waiters remain).
// d <= 0 disables the deadline. Call before serving traffic.
func (s *Server) SetRequestTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.requestTimeout = d
}

// BeginShutdown transitions the server into draining: /readyz flips to
// 503 so load balancers stop routing, new requests on sheddable routes
// are refused with 503 + Retry-After, and every in-flight training run is
// cancelled via its context. In-flight requests finish their responses —
// pair this with http.Server.Shutdown, which drains connections.
// Idempotent.
func (s *Server) BeginShutdown() {
	if s.draining.CompareAndSwap(false, true) {
		s.log.Printf("serve: draining: refusing new work, cancelling in-flight training")
	}
	s.cancelLifecycle()
	// Seal the event logs after the drain flag flips: new ingest is
	// already refused, and stragglers get ErrClosed → 503, never a lost
	// acknowledgment.
	s.closeEventLogs()
}

// Draining reports whether BeginShutdown has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// SetResponseCacheBytes replaces every shard's response cache with one
// carved from a global budget of maxBytes (equal shares, remainder to
// the first shard). Call before serving traffic (it is not synchronized
// with in-flight requests).
func (s *Server) SetResponseCacheBytes(maxBytes int64) {
	budgets := respcache.PartitionBudget(maxBytes, len(s.shards))
	for i, sh := range s.shards {
		sh.cache = respcache.New(s.cacheNameFor(sh.region), budgets[i], nil)
	}
}

// Handler returns the routed http.Handler. Every route, including
// GET /metrics itself, runs inside the metrics + panic-recovery
// middleware; all but the liveness/readiness probes additionally pass the
// load shedder and the per-request deadline (see middleware in
// resilience.go).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.routes = s.routes[:0]
	// Probes bypass shedding and deadlines: a loaded or draining server
	// must still answer its orchestrator. Everything else — including
	// the bulk fan-out and shard-admin routes — must go through the full
	// chain; TestSheddableRouteList locks this.
	s.handle(mux, "GET /healthz", "healthz", s.handleHealth, false)
	s.handle(mux, "GET /readyz", "readyz", s.handleReady, false)
	s.handle(mux, "GET /api/network", "network", s.handleNetwork, true)
	s.handle(mux, "GET /api/regions", "regions", s.handleRegions, true)
	s.handle(mux, "GET /api/models", "models", s.handleModels, true)
	s.handle(mux, "POST /api/models/{name}/train", "train", s.handleTrain, true)
	s.handle(mux, "GET /api/models/{name}/ranking", "ranking", s.handleRanking, true)
	s.handle(mux, "GET /api/pipes/{id}", "pipe", s.handlePipe, true)
	s.handle(mux, "GET /api/cohorts", "cohorts", s.handleCohorts, true)
	s.handle(mux, "GET /api/hotspots", "hotspots", s.handleHotspots, true)
	s.handle(mux, "POST /api/plan", "plan", s.handlePlan, true)
	s.handle(mux, "POST /api/bulk/rank", "bulkrank", s.handleBulkRank, true)
	s.handle(mux, "POST /api/bulk/plan", "bulkplan", s.handleBulkPlan, true)
	s.handle(mux, "POST /api/events", "events", s.handleEvents, true)
	s.handle(mux, "GET /metrics", "metrics", s.handleMetrics, true)
	return mux
}

// handle registers one route, recording it in s.routes so the
// sheddable-route invariant is testable. Sheddable routes get the full
// middleware chain; probes get instrumentation and panic recovery only.
func (s *Server) handle(mux *http.ServeMux, pattern, name string, h http.HandlerFunc, sheddable bool) {
	s.routes = append(s.routes, routeSpec{pattern: pattern, name: name, sheddable: sheddable})
	if sheddable {
		mux.HandleFunc(pattern, s.middleware(name, h))
	} else {
		mux.HandleFunc(pattern, s.instrument(name, s.recovered(name, h)))
	}
}

// middleware is the full request chain for sheddable routes, outermost
// first: metrics instrumentation, panic recovery, load shedding /
// drain refusal, per-request deadline, handler.
func (s *Server) middleware(route string, h http.HandlerFunc) http.HandlerFunc {
	return s.instrument(route, s.recovered(route, s.shed(s.deadlined(h))))
}

// instrument wraps a handler with the per-endpoint metrics: request
// counter, latency histogram, 4xx/5xx error counter and the shared
// in-flight gauge. Handles are resolved once per route at Handler()
// time, so the request path pays only atomic updates.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	reg := obs.Default()
	requests := reg.Counter("serve.requests." + route)
	errors := reg.Counter("serve.errors." + route)
	latency := reg.Histogram("serve.request_seconds."+route, nil)
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.inflight.Inc()
		defer s.metrics.inflight.Dec()
		requests.Inc()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		latency.Observe(time.Since(start).Seconds())
		if sw.status >= 400 {
			errors.Inc()
		}
	}
}

// statusWriter captures the response status for the error counter and
// whether any response bytes/headers already went out, so the panic
// recovery middleware knows if a clean 500 is still possible.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if w.wrote {
		return
	}
	w.wrote = true
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so the bulk endpoints can
// push each NDJSON line out as it resolves instead of buffering the
// whole stream.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		w.wrote = true
		f.Flush()
	}
}

// jsonCT is the Content-Type header value, preallocated so hot paths
// assign it into the header map without building a fresh slice.
var jsonCT = []string{"application/json"}

// bufPool recycles the encode buffers behind writeJSON and the cache
// fills. Buffers that grew past bufPoolMax are dropped instead of
// pooled, so one giant response cannot pin memory forever.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const bufPoolMax = 1 << 20

// keyPool recycles response-cache key scratch; keys are rebuilt per
// request from (route, model, canonical params).
var keyPool = sync.Pool{New: func() any { b := make([]byte, 0, 128); return &b }}

// appendRankingKey renders the canonical ranking cache key: route,
// model, snapshot ETag, clamped entry count. Shared by the single and
// bulk rank paths so their cache entries always collide — a bulk
// segment replays the exact bytes a single /ranking call cached, and
// vice versa. The snapshot's content ETag is part of the key because a
// live-event retrain can republish the same model name with different
// content: keying on identity makes the stale entry unreachable the
// moment the new snapshot lands, while the bit-identical rebuilds the
// scheduler normally produces keep the same key and stay warm.
func appendRankingKey(key []byte, model, etag string, entries int) []byte {
	key = append(key, "ranking\x00"...)
	key = append(key, model...)
	key = append(key, 0)
	key = append(key, etag...)
	key = append(key, 0)
	return strconv.AppendInt(key, int64(entries), 10)
}

// appendPlanKey renders the canonical plan cache key over decoded
// values, so textual aliases of one request share an entry; shared by
// the single and bulk plan paths. Like appendRankingKey, the snapshot
// ETag keys the entry to the published content, not just the name.
func appendPlanKey(key []byte, model, etag string, cm plan.CostModel, b plan.Budget) []byte {
	key = append(key, "plan\x00"...)
	key = append(key, model...)
	key = append(key, 0)
	key = append(key, etag...)
	key = append(key, 0)
	key = respcache.AppendKeyFloat(key, b.MaxLengthM)
	key = append(key, 0)
	key = strconv.AppendInt(key, int64(b.MaxCount), 10)
	key = append(key, 0)
	key = respcache.AppendKeyFloat(key, b.MaxSpend)
	key = append(key, 0)
	key = respcache.AppendKeyFloat(key, cm.InspectionPerKM)
	key = append(key, 0)
	key = respcache.AppendKeyFloat(key, cm.FailureCost)
	return key
}

// writeJSON encodes v into a pooled buffer, then writes it with
// Content-Type and an explicit Content-Length — a single non-chunked
// body write with no per-request buffer growth. Encoding happens before
// any header is flushed, so an unencodable value becomes a clean 500
// instead of a torn 200.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		s.log.Printf("serve: encode response (status %d): %v", status, err)
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		bufPool.Put(buf)
		return
	}
	h := w.Header()
	h["Content-Type"] = jsonCT
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.log.Printf("serve: write response (status %d): %v", status, err)
	}
	if buf.Cap() <= bufPoolMax {
		bufPool.Put(buf)
	}
}

// encodeBody marshals v into a fresh exactly-sized byte slice (via a
// pooled scratch buffer) for insertion into the response cache.
func encodeBody(v any) ([]byte, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		bufPool.Put(buf)
		return nil, err
	}
	body := make([]byte, buf.Len())
	copy(body, buf.Bytes())
	if buf.Cap() <= bufPoolMax {
		bufPool.Put(buf)
	}
	return body, nil
}

// writeCached serves one cache entry: 304 Not-Modified when the client
// already holds the entry's ETag, otherwise the full body with ETag and
// Content-Length from the entry's prebuilt header slices. The steady
// state (cache hit, reused connection) allocates nothing.
func (s *Server) writeCached(w http.ResponseWriter, r *http.Request, e respcache.Entry) {
	h := w.Header()
	if e.ETag != "" && r.Header.Get("If-None-Match") == e.ETag {
		e.SetHeaders(h) // 304 still carries the validator
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h["Content-Type"] = jsonCT
	e.SetHeaders(h)
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(e.Body); err != nil {
		s.log.Printf("serve: write cached response: %v", err)
	}
}

// entryQuery names one cacheable response off a model snapshot: the
// top-N ranking when top > 0, otherwise the plan priced by cm under b.
type entryQuery struct {
	top int
	cm  plan.CostModel
	b   plan.Budget
}

// snapshotEntry resolves the cached ranking or plan body for one
// published snapshot — the single path behind GET /ranking, POST /plan
// and every bulk region segment, so their cache entries (and bytes)
// always coincide. It builds the canonical key in pooled scratch and
// replays a hit without allocating; on a miss it builds the body and
// Adds it only on success, so failures are never cached. Concurrent
// misses on one key each build the same immutable bytes, and the cache
// keeps whichever Add lands first. The status accompanies a non-nil
// error and is what the failure maps to: 409 for a plan against a model
// without a calibrator, 400 for a plan that fails validation, 500 for an
// encode failure.
func (s *Server) snapshotEntry(sh *shard, tm *modelSnapshot, model string, q entryQuery) (respcache.Entry, int, error) {
	isPlan := q.top == 0
	if isPlan && tm.calibrator == nil {
		return respcache.Entry{}, http.StatusConflict, fmt.Errorf("model %q has no calibrator; cannot price a plan", model)
	}
	kp := keyPool.Get().(*[]byte)
	key := (*kp)[:0]
	if isPlan {
		key = appendPlanKey(key, model, tm.etag, q.cm, q.b)
	} else {
		// Canonical count: the clamped, re-rendered length, so top=050
		// and any top beyond the ranking length share one entry.
		key = appendRankingKey(key, model, tm.etag, len(tm.topEntries(q.top)))
	}
	e, hit := sh.cache.Get(key)
	var (
		status int
		err    error
	)
	switch {
	case hit && isPlan:
		s.metrics.planCacheHits.Inc()
	case isPlan:
		s.metrics.planCacheMisses.Inc()
		e, status, err = s.buildPlanBody(tm, model, q.cm, q.b)
	case !hit:
		var body []byte
		if body, err = encodeBody(tm.topEntries(q.top)); err != nil {
			s.log.Printf("serve: encode ranking for %s: %v", model, err)
			status, err = http.StatusInternalServerError, errors.New("encoding ranking failed")
		}
		e = respcache.Entry{Body: body, ETag: tm.etag}
	}
	if !hit && err == nil {
		sh.cache.Add(key, e)
	}
	*kp = key
	keyPool.Put(kp)
	return e, status, err
}

type apiError struct {
	Error string `json:"error"`
}

func (s *Server) writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// queryParam extracts the first value of key from a raw query string
// without building the url.Values map (url.Query allocates per call).
// Escaped values go through url.QueryUnescape; a value that fails to
// decode (e.g. a bare "%" in top=1%) is reported as an error so the
// caller can answer 400 — it used to be returned still-encoded, which
// let malformed values masquerade as ordinary bad input downstream.
// The well-known keys this server uses ("top", "min", "by") never need
// escaping themselves.
func queryParam(rawQuery, key string) (string, bool, error) {
	for len(rawQuery) > 0 {
		var pair string
		if i := strings.IndexByte(rawQuery, '&'); i >= 0 {
			pair, rawQuery = rawQuery[:i], rawQuery[i+1:]
		} else {
			pair, rawQuery = rawQuery, ""
		}
		k, v, _ := strings.Cut(pair, "=")
		if k != key {
			continue
		}
		if strings.ContainsAny(v, "%+") {
			dec, err := url.QueryUnescape(v)
			if err != nil {
				return "", true, fmt.Errorf("undecodable %s parameter %q: %v", key, v, err)
			}
			return dec, true, nil
		}
		return v, true, nil
	}
	return "", false, nil
}

// handleMetrics serves a JSON snapshot of the default obs registry:
// per-endpoint request/latency/error series, the training singleflight
// counters, the response-cache hit/miss/eviction counters, per-model
// fit-duration histograms and the worker-pool task counters (see
// DESIGN.md for the catalog).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, obs.Default().Snapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleNetwork(w http.ResponseWriter, r *http.Request) {
	sh, err := s.shardFromQuery(r.URL.RawQuery)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	split := sh.pipe.Split()
	resp := map[string]any{
		"region":     sh.net.Region,
		"pipes":      sh.net.NumPipes(),
		"failures":   sh.net.NumFailures(),
		"observed":   []int{sh.net.ObservedFrom, sh.net.ObservedTo},
		"train":      []int{split.TrainFrom, split.TrainTo},
		"test_year":  split.TestYear,
		"network_km": sh.net.TotalLengthM() / 1000,
	}
	// The multi-shard body additionally lists the fleet; a single-shard
	// server keeps the exact pre-shard shape. Live-event counts appear
	// only once ingest has seen traffic, preserving the pre-ingest body.
	if len(s.shards) > 1 {
		resp["regions"] = s.Regions()
	}
	if n := sh.eventSeqNow(); n > 0 {
		resp["live_events"] = n
	}
	s.writeJSON(w, http.StatusOK, resp)
}

type modelStatus struct {
	Name       string  `json:"name"`
	Trained    bool    `json:"trained"`
	AUC        float64 `json:"auc,omitempty"`
	Det1       float64 `json:"detection_at_1pct,omitempty"`
	FitSeconds float64 `json:"fit_seconds,omitempty"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	sh, err := s.shardFromQuery(r.URL.RawQuery)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	models := *sh.models.Load()
	var out []modelStatus
	for _, name := range pipefail.Models() {
		st := modelStatus{Name: name}
		if tm, ok := models[name]; ok {
			st.Trained = true
			st.AUC = tm.ranking.AUC()
			st.Det1 = tm.ranking.DetectionAt(0.01)
			st.FitSeconds = tm.fitSeconds
		}
		out = append(out, st)
	}
	s.writeJSON(w, http.StatusOK, out)
}

func knownModel(name string) bool {
	for _, m := range pipefail.Models() {
		if m == name {
			return true
		}
	}
	return false
}

// errUnknownModel distinguishes a client naming error (400) from
// internal training failures (503) in the handlers' status mapping.
var errUnknownModel = errors.New("unknown model")

// abandon drops one waiter from a training job; the last waiter out
// cancels the run.
func (s *Server) abandon(sh *shard, job *trainJob) {
	sh.mu.Lock()
	job.waiters--
	if job.waiters <= 0 {
		job.cancel()
	}
	sh.mu.Unlock()
}

// runTrain executes one training run on its own goroutine, containing
// panics into recorded failures: a panicking trainer must never take the
// process down, it becomes an error every waiter sees while the server
// keeps serving (the next request for the model retrains from scratch).
func (s *Server) runTrain(ctx context.Context, sh *shard, name string, job *trainJob) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.trainPanics.Inc()
			job.tm = nil
			job.err = fmt.Errorf("training %q panicked: %v", name, r)
			s.log.Printf("serve: training %s panicked (contained): %v", name, r)
		}
		if job.err != nil {
			s.metrics.trainFailures.Inc()
			if errors.Is(job.err, context.Canceled) || errors.Is(job.err, context.DeadlineExceeded) {
				s.metrics.trainCancelled.Inc()
			}
		}
		sh.mu.Lock()
		delete(sh.pending, name)
		if job.err == nil {
			sh.publishLocked(name, job.tm)
		}
		sh.mu.Unlock()
		job.cancel() // release the context's resources
		close(job.done)
	}()
	job.tm, job.err = s.trainFn(ctx, sh, name)
}

// train runs one full training pass for name on one shard and assembles
// the frozen snapshot (see snapshot.go). It does not touch shard maps.
// Cancelling ctx aborts the fit at its next generation/round/epoch
// boundary; a successful pass is persisted to the state dir when one is
// configured.
func (s *Server) train(ctx context.Context, sh *shard, name string) (*modelSnapshot, error) {
	// Train against the live pipeline: the base one when no events have
	// been ingested (bit-identical to the pre-ingest server), otherwise
	// one extended over the WAL-backed event overlays. The snapshot
	// records the event seq it reflects so the scheduler can tell when
	// newer events have made it stale.
	pipe, seq, err := sh.trainPipeline()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	m, err := pipe.TrainContext(ctx, name)
	if err != nil {
		return nil, fmt.Errorf("training %q: %w", name, err)
	}
	snap, err := s.snapshotModel(sh, pipe, seq, name, m, time.Since(start).Seconds())
	if err != nil {
		return nil, err
	}
	s.log.Printf("serve: trained %s in %.2fs (AUC %.4f)", name, snap.fitSeconds, snap.ranking.AUC())
	s.saveModel(sh, name, m)
	return snap, nil
}

// snapshotModel ranks a fitted model against pipe and freezes the
// serving snapshot at event seq — shared by the training path and the
// warm-restart restore path, so a restored model reproduces the exact
// rankings (and ETags) a fresh train would have produced from the same
// weights over the same event sequence.
func (s *Server) snapshotModel(sh *shard, pipe *pipefail.Pipeline, seq int64, name string, m pipefail.Model, fitSeconds float64) (*modelSnapshot, error) {
	ranking, err := pipe.Rank(m)
	if err != nil {
		return nil, fmt.Errorf("training %q: %w", name, err)
	}
	var calibrator core.Calibrator
	cal := &core.IsotonicCalibrator{}
	if cerr := cal.FitCal(ranking.Scores, ranking.Failed); cerr != nil {
		// Calibration failure is non-fatal: plans are refused while
		// rankings still serve (without fail_prob).
		s.log.Printf("serve: calibration for %s failed: %v", name, cerr)
	} else {
		calibrator = cal
	}
	tm := newModelSnapshot(name, m, ranking, calibrator, fitSeconds)
	tm.eventSeq = seq
	return tm, nil
}

// writeGetErr maps a get() failure onto an HTTP status: naming an unknown
// model is the client's fault (400); everything else — training failure,
// contained panic, cancellation, shutdown — is the service's (503, with
// Retry-After since a retry may well succeed).
func (s *Server) writeGetErr(w http.ResponseWriter, err error) {
	if errors.Is(err, errUnknownModel) {
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Retry-After", "1")
	s.writeErr(w, http.StatusServiceUnavailable, "%v", err)
}

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sh, err := s.shardFromQuery(r.URL.RawQuery)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	tm, err := s.getShard(r.Context(), sh, name)
	if err != nil {
		s.writeGetErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, modelStatus{
		Name: name, Trained: true,
		AUC:        tm.ranking.AUC(),
		Det1:       tm.ranking.DetectionAt(0.01),
		FitSeconds: tm.fitSeconds,
	})
}

type rankedPipe struct {
	Rank     int     `json:"rank"`
	PipeID   string  `json:"pipe_id"`
	Score    float64 `json:"score"`
	FailProb float64 `json:"fail_prob,omitempty"`
}

// handleRanking serves the top-N inspection worklist. Steady state is a
// pure replay: one atomic map load for the snapshot, a pooled key build,
// one LRU lookup, and a single body write (or a 304 when the client
// already holds the snapshot's ETag) — zero heap allocations.
func (s *Server) handleRanking(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sh, err := s.shardFromQuery(r.URL.RawQuery)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	tm, err := s.getShard(r.Context(), sh, name)
	if err != nil {
		s.writeGetErr(w, err)
		return
	}
	top := 50
	q, _, qerr := queryParam(r.URL.RawQuery, "top")
	if qerr != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", qerr)
		return
	}
	if q != "" {
		top, err = strconv.Atoi(q)
		if err != nil || top < 1 {
			s.writeErr(w, http.StatusBadRequest, "bad top parameter %q", q)
			return
		}
	}
	e, status, err := s.snapshotEntry(sh, tm, name, entryQuery{top: top})
	if err != nil {
		s.writeErr(w, status, "%v", err)
		return
	}
	s.writeCached(w, r, e)
}

// findPipe locates a pipe ID across the shards: an explicit shard
// first, otherwise every shard in fan-out order (pipe IDs are globally
// unique in district-structured datasets, so the first hit is the hit).
func (s *Server) findPipe(sh *shard, id string) (*shard, *pipefail.Pipe, bool) {
	if sh != nil {
		p, ok := sh.net.PipeByID(id)
		return sh, p, ok
	}
	for _, o := range s.shards {
		if p, ok := o.net.PipeByID(id); ok {
			return o, p, true
		}
	}
	return nil, nil, false
}

func (s *Server) handlePipe(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var want *shard
	if region, ok, err := queryParam(r.URL.RawQuery, "region"); err != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	} else if ok && region != "" {
		if want, ok = s.byRegion[region]; !ok {
			s.writeErr(w, http.StatusBadRequest, "unknown region %q", region)
			return
		}
	}
	sh, p, ok := s.findPipe(want, id)
	if !ok {
		s.writeErr(w, http.StatusNotFound, "unknown pipe %q", id)
		return
	}
	resp := map[string]any{
		"id":             p.ID,
		"region":         sh.region,
		"class":          p.Class.String(),
		"material":       string(p.Material),
		"coating":        string(p.Coating),
		"diameter":       p.DiameterMM,
		"length_m":       p.LengthM,
		"laid_year":      p.LaidYear,
		"soil":           map[string]string{"corrosivity": p.SoilCorrosivity, "expansivity": p.SoilExpansivity, "geology": p.SoilGeology, "map": p.SoilMap},
		"dist_traffic_m": p.DistToTrafficM,
		"failures":       len(sh.net.FailuresOf(id)),
	}
	scores := map[string]float64{}
	for name, tm := range *sh.models.Load() {
		if i, ok := tm.rankIdx[id]; ok {
			scores[name] = tm.ranking.Scores[i]
		}
	}
	if len(scores) > 0 {
		resp["scores"] = scores
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleCohorts replays cohort tables from the response cache — the
// network is immutable for the life of the server, so each dimension is
// computed and encoded exactly once, with a body-hash ETag.
func (s *Server) handleCohorts(w http.ResponseWriter, r *http.Request) {
	sh, err := s.shardFromQuery(r.URL.RawQuery)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	by, _, qerr := queryParam(r.URL.RawQuery, "by")
	if qerr != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", qerr)
		return
	}
	var fill func() (any, error)
	switch by {
	case "", "material":
		fill = func() (any, error) { return sh.net.CohortByMaterial(), nil }
	case "age":
		fill = func() (any, error) { return sh.net.CohortByAgeBand(10) }
	case "diameter":
		fill = func() (any, error) { return sh.net.CohortByDiameterBand([]float64{100, 200, 300, 450}) }
	default:
		s.writeErr(w, http.StatusBadRequest, "unknown cohort dimension %q (want material, age or diameter)", by)
		return
	}
	if by == "" {
		by = "material" // canonical: default and explicit share an entry
	}
	kp := keyPool.Get().(*[]byte)
	key := append((*kp)[:0], "cohorts\x00"...)
	key = append(key, by...)
	e, ok := sh.cache.Get(key)
	if !ok {
		var rows any
		if rows, err = fill(); err == nil {
			e, err = hashedEntry(rows)
		}
		if err == nil {
			sh.cache.Add(key, e)
		}
	}
	*kp = key
	keyPool.Put(kp)
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.writeCached(w, r, e)
}

// hashedEntry encodes v into a response entry tagged with its body hash,
// for bodies with no snapshot ETag: plans, cohort and hotspot tables.
func hashedEntry(v any) (respcache.Entry, error) {
	body, err := encodeBody(v)
	if err != nil {
		return respcache.Entry{}, err
	}
	return respcache.Entry{Body: body, ETag: respcache.BodyETag(body)}, nil
}

func (s *Server) handleHotspots(w http.ResponseWriter, r *http.Request) {
	sh, err := s.shardFromQuery(r.URL.RawQuery)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	min := 2
	q, _, qerr := queryParam(r.URL.RawQuery, "min")
	if qerr != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", qerr)
		return
	}
	if q != "" {
		var err error
		min, err = strconv.Atoi(q)
		if err != nil || min < 1 {
			s.writeErr(w, http.StatusBadRequest, "bad min parameter %q", q)
			return
		}
	}
	kp := keyPool.Get().(*[]byte)
	key := append((*kp)[:0], "hotspots\x00"...)
	key = strconv.AppendInt(key, int64(min), 10)
	e, ok := sh.cache.Get(key)
	if !ok {
		if e, err = hashedEntry(sh.net.SegmentHotspots(min)); err == nil {
			sh.cache.Add(key, e)
		}
	}
	*kp = key
	keyPool.Put(kp)
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.writeCached(w, r, e)
}

// planRequest is the decoded POST /api/plan body. The priced
// parameters are pointers so "absent" (use the default) and "explicitly
// zero" (a client bug — zero-cost inspections, free failures or a zero
// spend cap price every plan nonsensically) are distinguishable. Values
// come out of s.planBodies and are shared, so handlers never mutate one.
type planRequest struct {
	Model           string   `json:"model"`
	Region          string   `json:"region"`
	BudgetKM        float64  `json:"budget_km"`
	MaxPipes        int      `json:"max_pipes"`
	InspectionPerKM *float64 `json:"inspection_per_km"`
	FailureCost     *float64 `json:"failure_cost"`
	MaxSpend        *float64 `json:"max_spend"`
}

func (r *planRequest) memoBytes() int { return len(r.Model) + len(r.Region) }

type planResponse struct {
	Model             string   `json:"model"`
	Pipes             []string `json:"pipes"`
	TotalKM           float64  `json:"total_km"`
	InspectionCost    float64  `json:"inspection_cost"`
	ExpectedPrevented float64  `json:"expected_prevented"`
	ExpectedNet       float64  `json:"expected_net"`
}

const (
	defaultInspectionPerKM = 8000
	defaultFailureCost     = 150000
)

// handlePlan prices a budget-constrained inspection plan. Steady state
// is a pure replay, symmetric with handleRanking: the body is read into
// a pooled buffer and resolved to its decoded request by the raw-body
// memo, the snapshot comes from one atomic map load, the canonical cache
// key (model, rendered budget dimensions, cost parameters) is assembled
// in pooled scratch, and a respcache hit is served with prebuilt headers
// — or a 304 against the body ETag — without touching the heap. A miss
// runs a binary search over the snapshot's precomputed plan prefix
// (plan.BuildPrefix, paid once per cost model) instead of re-sorting
// all candidates, then caches the encoded response.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	s.servePlan(w, r, buf)
	if buf.Cap() <= bufPoolMax {
		bufPool.Put(buf)
	}
}

func (s *Server) servePlan(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) {
	if !s.readBody(w, r, buf) {
		return
	}
	req, err := s.planBodies.decode(buf.Bytes())
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}

	cm, b, perr := planParams(req.BudgetKM, req.MaxPipes, req.InspectionPerKM, req.FailureCost, req.MaxSpend)
	if perr != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", perr)
		return
	}

	sh := s.def
	if req.Region != "" {
		var ok bool
		if sh, ok = s.byRegion[req.Region]; !ok {
			s.writeErr(w, http.StatusBadRequest, "unknown region %q", req.Region)
			return
		}
	}
	model := req.Model
	if model == "" {
		model = s.defaultModel
	}
	tm, err := s.getShard(r.Context(), sh, model)
	if err != nil {
		s.writeGetErr(w, err)
		return
	}
	e, status, err := s.snapshotEntry(sh, tm, model, entryQuery{cm: cm, b: b})
	if err != nil {
		s.writeErr(w, status, "%v", err)
		return
	}
	s.writeCached(w, r, e)
}

// readBody reads a plan or bulk request body into buf, answering 413
// (and returning false) once it passes bufPoolMax bytes and 400 on a
// read error. It reads into buf's spare capacity directly because
// http.MaxBytesReader or an io.LimitedReader would allocate on every
// request, and the cached plan and bulk paths allocate nothing.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) bool {
	for r.ContentLength <= bufPoolMax && buf.Len() <= bufPoolMax {
		buf.Grow(bytes.MinRead)
		spare := buf.AvailableBuffer()
		spare = spare[:min(cap(spare), bufPoolMax+1-buf.Len())]
		n, err := r.Body.Read(spare)
		buf.Write(spare[:n])
		if err == io.EOF {
			return true
		}
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
			return false
		}
	}
	s.writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", bufPoolMax)
	return false
}

// planParams validates the decoded plan fields and assembles the cost
// model and budget; every error is a 400 with the exact text servePlan
// has always sent. Shared by the single-plan and bulk-plan paths so the
// two cannot drift. Nil pointers are absent fields.
func planParams(budgetKM float64, maxPipes int, inspPerKM, failCost, maxSpend *float64) (plan.CostModel, plan.Budget, error) {
	// Explicit zero on a priced or capped parameter is a client bug, not
	// a request for a degenerate plan.
	if inspPerKM != nil && *inspPerKM == 0 {
		return plan.CostModel{}, plan.Budget{}, fmt.Errorf(
			"inspection_per_km is explicitly 0; omit the field for the default (%d)", defaultInspectionPerKM)
	}
	if failCost != nil && *failCost == 0 {
		return plan.CostModel{}, plan.Budget{}, fmt.Errorf(
			"failure_cost is explicitly 0; omit the field for the default (%d)", defaultFailureCost)
	}
	spend := 0.0
	if maxSpend != nil {
		if spend = *maxSpend; spend == 0 {
			return plan.CostModel{}, plan.Budget{}, fmt.Errorf(
				"max_spend is explicitly 0; omit the field for an uncapped spend")
		}
	}
	// Negative budget dimensions used to silently mean "unconstrained"
	// (the planner treats <= 0 as unset); reject them instead.
	if budgetKM < 0 {
		return plan.CostModel{}, plan.Budget{}, fmt.Errorf("negative budget_km %v", budgetKM)
	}
	if maxPipes < 0 {
		return plan.CostModel{}, plan.Budget{}, fmt.Errorf("negative max_pipes %d", maxPipes)
	}
	if spend < 0 {
		return plan.CostModel{}, plan.Budget{}, fmt.Errorf("negative max_spend %v", spend)
	}

	cm := defaultCostModel
	if inspPerKM != nil {
		cm.InspectionPerKM = *inspPerKM
	}
	if failCost != nil {
		cm.FailureCost = *failCost
	}
	if err := cm.Validate(); err != nil {
		return plan.CostModel{}, plan.Budget{}, err
	}
	b := plan.Budget{MaxLengthM: budgetKM * 1000, MaxCount: maxPipes, MaxSpend: spend}
	if b.MaxLengthM <= 0 && b.MaxCount <= 0 && b.MaxSpend <= 0 {
		return plan.CostModel{}, plan.Budget{}, plan.ErrNoBudget
	}
	return cm, b, nil
}

// buildPlanBody prices one plan against a snapshot and encodes the
// response body — snapshotEntry's plan miss path. The status is 400 for
// a plan that fails validation and 500 for an encode failure; the
// caller owns caching.
func (s *Server) buildPlanBody(tm *modelSnapshot, model string, cm plan.CostModel, b plan.Budget) (respcache.Entry, int, error) {
	px, err := tm.prefixFor(cm, s.metrics.planPrefixBuilds)
	if err != nil {
		return respcache.Entry{}, http.StatusBadRequest, err
	}
	p, err := px.Plan(b)
	if err != nil {
		return respcache.Entry{}, http.StatusBadRequest, err
	}
	resp := planResponse{
		Model:             model,
		TotalKM:           p.TotalLengthM / 1000,
		InspectionCost:    p.InspectionCost,
		ExpectedPrevented: p.ExpectedPrevented,
		ExpectedNet:       p.ExpectedNet,
	}
	if len(p.Selected) > 0 {
		resp.Pipes = p.IDs()
	}
	e, err := hashedEntry(resp)
	if err != nil {
		s.log.Printf("serve: encode plan for %s: %v", model, err)
		return respcache.Entry{}, http.StatusInternalServerError, errors.New("encoding plan failed")
	}
	return e, 0, nil
}
