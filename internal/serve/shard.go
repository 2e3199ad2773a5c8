package serve

// Region shards: the unit of isolation in the multi-region registry.
// Each shard owns one region's data, its pipeline, one slot per model
// (the published snapshot and the fit in flight) and its cohort and
// hotspot bodies, encoded once — so a hot region's train storms cannot
// degrade its neighbours. The Server
// holds the shards in a fixed slice (deterministic fan-out order) plus a
// region-name index; both are immutable after construction, so request
// paths read them without locks.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/obs"
)

// shard is one region's serving state. All fields are set at
// construction except the model slots' contents: each slot's snapshot
// is an atomic pointer readers load without locking, and its in-flight
// fit is guarded by mu.
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

	// cohorts holds the cohort table bodies by dimension, and hotspots
	// the hotspot list bodies by ?min= (see hotspotBodies); both read
	// only the base region, so they are encoded once.
	cohorts  map[string]encoded
	hotspots []encoded

	// stateDir is this shard's warm-restart directory (a per-region
	// subdirectory of the server's -state-dir when multiple shards
	// exist; the dir itself for a single shard, preserving the layout
	// the single-region server always used).
	stateDir string

	// models holds one slot per servable model (see modelSlots).
	models []modelSlot

	mu sync.Mutex // guards each slot's job, job waiter counts, and publication

	// Scheduler outcome counters, per shard so operators can see which
	// region is churning: serve.shard.<region>.rebuilds / .rebuild_failures.
	rebuilds        *obs.Counter
	rebuildFailures *obs.Counter
}

// modelSlot is one model's serving state on one shard: the published
// snapshot (nil until the first fit or restore lands) and the fit in
// flight, if any (the train singleflight; guarded by shard.mu).
type modelSlot struct {
	name string
	snap atomic.Pointer[modelSnapshot]
	job  *trainJob
}

// modelSlots maps each servable model to its slot: its index in
// pipefail.Models(). It is built once, so resolving a name allocates
// nothing.
var modelSlots = func() map[string]int {
	m := map[string]int{}
	for i, name := range pipefail.Models() {
		m[name] = i
	}
	return m
}()

// newShard builds one region's serving state.
func newShard(d *pipefail.Data, opts ...pipefail.PipelineOption) (*shard, error) {
	p, err := pipefail.NewPipelineData(d, opts...)
	if err != nil {
		return nil, fmt.Errorf("serve: region %q: %w", d.Region, err)
	}
	reg := obs.Default()
	token := obs.SanitizeMetricName(d.Region)
	sh := &shard{
		region: d.Region,
		data:   d,
		pipe:   p,
		opts:   opts,
		models: make([]modelSlot, len(modelSlots)),
		cohorts: map[string]encoded{
			"material": encodeFixed(d.CohortByMaterial(), nil),
			"age":      encodeFixed(d.CohortByAgeBand(10)),
			"diameter": encodeFixed(d.CohortByDiameterBand([]float64{100, 200, 300, 450})),
		},
		hotspots:        hotspotBodies(d),
		rebuilds:        reg.Counter("serve.shard." + token + ".rebuilds"),
		rebuildFailures: reg.Counter("serve.shard." + token + ".rebuild_failures"),
	}
	for name, i := range modelSlots {
		sh.models[i].name = name
	}
	return sh, nil
}

// hotspotBodies encodes the region's hotspot list once. SegmentHotspots
// sorts by failure count, so the list for min=m is a prefix of the list
// for min=1: element m-1 of the result serves min=m, and the last, an
// empty list, every larger min. Mins with the same cut share one body.
func hotspotBodies(d *pipefail.Data) []encoded {
	hot := d.SegmentHotspots(1)
	list, _ := emptyList.extend(len(hot), 64*len(hot), func(dst []byte, i int) ([]byte, bool) {
		b, _ := json.Marshal(hot[i]) // a string and ints: cannot fail
		return append(dst, b...), true
	})
	var out []encoded
	for m, prev := 1, -1; ; m++ {
		k := sort.Search(len(hot), func(i int) bool { return hot[i].Failures < m })
		switch {
		case k == 0:
			return append(out, newEncoded([]byte("null\n"), nil))
		case k == prev:
			out = append(out, out[m-2])
		default:
			out = append(out, newEncoded(list.body[:list.end[k]], listClose))
		}
		prev = k
	}
}

// slot returns the shard's slot for the named model, nil when no such
// model exists.
func (sh *shard) slot(name string) *modelSlot {
	if i, ok := modelSlots[name]; ok {
		return &sh.models[i]
	}
	return nil
}

// published counts the shard's published snapshots.
func (sh *shard) published() int {
	n := 0
	for i := range sh.models {
		if sh.models[i].snap.Load() != nil {
			n++
		}
	}
	return n
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
// empty selects def — the default (first) shard for every route but the
// pipe lookup, which keeps every single-region request byte-identical
// to the pre-shard server.
func (s *Server) shardFromQuery(rawQuery string, def *shard) (*shard, error) {
	region, _, err := queryParam(rawQuery, "region")
	if err != nil {
		return nil, err
	}
	return s.shardNamed(region, def)
}

// shardNamed resolves a region name, def when the name is empty.
func (s *Server) shardNamed(region string, def *shard) (*shard, error) {
	if region == "" {
		return def, nil
	}
	sh, ok := s.byRegion[region]
	if !ok {
		return nil, fmt.Errorf("unknown region %q", region)
	}
	return sh, nil
}

// getShard returns the trained model snapshot for one shard, training
// it on first use. The fast path is one atomic load of the model's slot
// — no lock. Exactly one goroutine trains any given (shard, model) pair;
// concurrent callers block on the in-flight job's done channel and share
// its result, so the HTTP layer degrades to queueing (not errors) under
// concurrent load. A failed run is not published: its waiters all
// receive the error, and the next request starts a fresh attempt.
//
// Training runs on its own goroutine (see startFitLocked), so
// BeginShutdown aborts it and waits for it. Each waiter watches its own
// request context: a waiter whose client disconnects (or whose deadline
// fires) abandons the job, and when the last waiter leaves the run
// itself is cancelled — nobody is left training for an empty room.
func (s *Server) getShard(ctx context.Context, sh *shard, name string) (*modelSnapshot, error) {
	sl := sh.slot(name)
	if sl == nil {
		return nil, fmt.Errorf("%w %q", errUnknownModel, name)
	}
	if tm := sl.snap.Load(); tm != nil {
		s.metrics.sfCached.Inc()
		return tm, nil
	}
	sh.mu.Lock()
	if tm := sl.snap.Load(); tm != nil {
		sh.mu.Unlock()
		s.metrics.sfCached.Inc()
		return tm, nil
	}
	job := sl.job
	if job != nil {
		job.waiters++
		sh.mu.Unlock()
		s.metrics.sfHits.Inc()
	} else {
		job = s.startFitLocked(sh, sl, nil)
		sh.mu.Unlock()
		if job == nil {
			return nil, fmt.Errorf("training %q: server shutting down: %w", name, context.Canceled)
		}
		s.metrics.sfMisses.Inc()
	}

	select {
	case <-job.done:
		return job.tm, job.err
	case <-ctx.Done():
		s.abandon(sh, job)
		return nil, fmt.Errorf("training %q abandoned: %w", name, ctx.Err())
	}
}

// startFitLocked installs a new fit as sl's job and starts it on its own
// goroutine under the server lifecycle, counted in s.fits so that
// BeginShutdown cancels it and waits for it; after, when non-nil, runs on
// that goroutine once the job is done. Once BeginShutdown has begun it
// starts nothing and returns nil. Callers hold sh.mu.
func (s *Server) startFitLocked(sh *shard, sl *modelSlot, after func(*trainJob)) *trainJob {
	// fitMu orders this Add against BeginShutdown's Wait.
	s.fitMu.Lock()
	if s.lifecycle.Err() != nil {
		s.fitMu.Unlock()
		return nil
	}
	s.fits.Add(1)
	s.fitMu.Unlock()
	ctx, cancel := context.WithCancel(s.lifecycle)
	job := &trainJob{done: make(chan struct{}), cancel: cancel, waiters: 1}
	sl.job = job
	go s.runTrain(ctx, sh, sl, job, after)
	return job
}

// regionStatus is one row of GET /api/regions: the fleet-operator view
// of a shard.
type regionStatus struct {
	Region        string  `json:"region"`
	Pipes         int     `json:"pipes"`
	Failures      int     `json:"failures"`
	NetworkKM     float64 `json:"network_km"`
	ModelsTrained int     `json:"models_trained"`
	// Streaming-ingest fields, present only when an event log is wired.
	LiveEvents  int64 `json:"live_events,omitempty"`
	WalSegments int   `json:"wal_segments,omitempty"`
	WalBytes    int64 `json:"wal_bytes,omitempty"`
}

// handleRegions reports per-shard serving state: which regions this
// process holds and how warm each one is.
func (s *Server) handleRegions(w http.ResponseWriter, _ *http.Request) {
	out := make([]regionStatus, len(s.shards))
	for i, sh := range s.shards {
		out[i] = regionStatus{
			Region:        sh.region,
			Pipes:         sh.data.NumPipes(),
			Failures:      sh.data.NumFailures(),
			NetworkKM:     sh.data.TotalLengthM() / 1000,
			ModelsTrained: sh.published(),
		}
		if ing := sh.ingest; ing != nil {
			out[i].LiveEvents = sh.eventSeqNow()
			out[i].WalSegments = ing.wal.Segments()
			out[i].WalBytes = ing.wal.SizeBytes()
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}
