package serve

// Region shards: the unit of isolation in the multi-region registry.
// Each shard owns one region's data, its pipeline, its copy-on-write snapshot
// map, its train singleflight table and its own respcache carved out of
// the global byte budget — so a hot region's cache evictions and train
// storms cannot degrade its neighbours. The Server holds the shards in
// a fixed slice (deterministic fan-out order) plus a region-name index;
// both are immutable after construction, so request paths read them
// without locks.

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/obs"
	"repro/internal/respcache"
)

// shard is one region's serving state. All fields are set at
// construction except models/pending, which follow the same
// discipline they did on the single-region Server: models is
// copy-on-write behind an atomic pointer, pending and publication are
// guarded by mu.
type shard struct {
	region string
	data   *pipefail.Data // the loaded region; live rebuilds extend it
	pipe   *pipefail.Pipeline

	// opts are the pipeline options the shard was built with, kept so
	// live retrains (trainPipeline) rebuild with identical settings —
	// same seed, same feature groups — which is what makes a replayed
	// event log reproduce a bit-identical model.
	opts []pipefail.PipelineOption

	// ingest is the streaming-ingest state (WAL + live event overlays +
	// drift gauges); nil until Server.SetEventLog wires it. See events.go.
	ingest *ingestState

	// cache holds this shard's encoded responses under its slice of the
	// global budget (see Server.SetResponseCacheBytes).
	cache *respcache.Cache

	// stateDir is this shard's warm-restart directory (a per-region
	// subdirectory of the server's -state-dir when multiple shards
	// exist; the dir itself for a single shard, preserving the layout
	// the single-region server always used).
	stateDir string

	// models is the copy-on-write name → snapshot map: readers Load once
	// and never lock; writers clone-and-swap under mu.
	models atomic.Pointer[map[string]*modelSnapshot]

	mu      sync.Mutex // guards pending, job waiter counts, and models publication
	pending map[string]*trainJob

	// Scheduler outcome counters, per shard so operators can see which
	// region is churning: serve.shard.<region>.rebuilds / .rebuild_failures.
	rebuilds        *obs.Counter
	rebuildFailures *obs.Counter
}

// newShard builds one region's serving state; the caller installs its
// response cache.
func newShard(d *pipefail.Data, opts ...pipefail.PipelineOption) (*shard, error) {
	p, err := pipefail.NewPipelineData(d, opts...)
	if err != nil {
		return nil, fmt.Errorf("serve: region %q: %w", d.Region, err)
	}
	reg := obs.Default()
	token := obs.SanitizeMetricName(d.Region)
	sh := &shard{
		region:          d.Region,
		data:            d,
		pipe:            p,
		opts:            opts,
		pending:         make(map[string]*trainJob),
		rebuilds:        reg.Counter("serve.shard." + token + ".rebuilds"),
		rebuildFailures: reg.Counter("serve.shard." + token + ".rebuild_failures"),
	}
	empty := make(map[string]*modelSnapshot)
	sh.models.Store(&empty)
	return sh, nil
}

// publishLocked swaps in a new copy-on-write map containing tm. Callers
// hold sh.mu, so concurrent publishes never lose entries; readers see
// either the old or the new complete map, never a partial write.
func (sh *shard) publishLocked(name string, tm *modelSnapshot) {
	old := *sh.models.Load()
	next := make(map[string]*modelSnapshot, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = tm
	sh.models.Store(&next)
}

// Regions returns the shard region names in serving (fan-out) order.
func (s *Server) Regions() []string {
	out := make([]string, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.region
	}
	return out
}

// shardFromQuery resolves the optional ?region= selector; absent or
// empty selects the default (first) shard, which keeps every
// single-region request byte-identical to the pre-shard server.
func (s *Server) shardFromQuery(rawQuery string) (*shard, error) {
	region, ok, err := queryParam(rawQuery, "region")
	if err != nil {
		return nil, err
	}
	if !ok || region == "" {
		return s.def, nil
	}
	sh, found := s.byRegion[region]
	if !found {
		return nil, fmt.Errorf("unknown region %q", region)
	}
	return sh, nil
}

// getShard returns the trained model snapshot for one shard, training
// it on first use. The fast path is one atomic load of the shard's
// copy-on-write map — no lock. Exactly one goroutine trains any given
// (shard, model) pair; concurrent callers block on the in-flight job's
// done channel and share its result, so the HTTP layer degrades to
// queueing (not errors) under concurrent load. A failed run is not
// published: its waiters all receive the error, and the next request
// starts a fresh attempt.
//
// Training runs on its own goroutine under a context derived from the
// server lifecycle, so BeginShutdown aborts it. Each waiter watches its
// own request context: a waiter whose client disconnects (or whose
// deadline fires) abandons the job, and when the last waiter leaves the
// run itself is cancelled — nobody is left training for an empty room.
func (s *Server) getShard(ctx context.Context, sh *shard, name string) (*modelSnapshot, error) {
	if tm, ok := (*sh.models.Load())[name]; ok {
		s.metrics.sfCached.Inc()
		return tm, nil
	}
	if !knownModel(name) {
		return nil, fmt.Errorf("%w %q", errUnknownModel, name)
	}
	sh.mu.Lock()
	if tm, ok := (*sh.models.Load())[name]; ok {
		sh.mu.Unlock()
		s.metrics.sfCached.Inc()
		return tm, nil
	}
	job, ok := sh.pending[name]
	if ok {
		job.waiters++
		sh.mu.Unlock()
		s.metrics.sfHits.Inc()
	} else {
		tctx, cancel := context.WithCancel(s.lifecycle)
		job = &trainJob{done: make(chan struct{}), cancel: cancel, waiters: 1}
		sh.pending[name] = job
		sh.mu.Unlock()
		s.metrics.sfMisses.Inc()
		go s.runTrain(tctx, sh, name, job)
	}

	select {
	case <-job.done:
		return job.tm, job.err
	case <-ctx.Done():
		s.abandon(sh, job)
		return nil, fmt.Errorf("training %q abandoned: %w", name, ctx.Err())
	}
}

// get is getShard on the default shard — the single-region entry point
// every pre-shard call site (and test seam) still uses.
func (s *Server) get(ctx context.Context, name string) (*modelSnapshot, error) {
	return s.getShard(ctx, s.def, name)
}

// regionStatus is one row of GET /api/regions: the fleet-operator view
// of a shard.
type regionStatus struct {
	Region        string  `json:"region"`
	Pipes         int     `json:"pipes"`
	Failures      int     `json:"failures"`
	NetworkKM     float64 `json:"network_km"`
	ModelsTrained int     `json:"models_trained"`
	CacheBytes    int64   `json:"cache_bytes"`
	CacheEntries  int     `json:"cache_entries"`
	// Streaming-ingest fields, present only when an event log is wired.
	LiveEvents  int64 `json:"live_events,omitempty"`
	WalSegments int   `json:"wal_segments,omitempty"`
	WalBytes    int64 `json:"wal_bytes,omitempty"`
}

// handleRegions reports per-shard serving state: which regions this
// process holds, how warm each one is, and how much of its cache slice
// is in use.
func (s *Server) handleRegions(w http.ResponseWriter, _ *http.Request) {
	out := make([]regionStatus, len(s.shards))
	for i, sh := range s.shards {
		out[i] = regionStatus{
			Region:        sh.region,
			Pipes:         sh.data.NumPipes(),
			Failures:      sh.data.NumFailures(),
			NetworkKM:     sh.data.TotalLengthM() / 1000,
			ModelsTrained: len(*sh.models.Load()),
			CacheBytes:    sh.cache.SizeBytes(),
			CacheEntries:  sh.cache.Len(),
		}
		if ing := sh.ingest; ing != nil {
			out[i].LiveEvents = sh.eventSeqNow()
			out[i].WalSegments = ing.wal.Segments()
			out[i].WalBytes = ing.wal.SizeBytes()
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}
