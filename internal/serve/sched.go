package serve

// Background rebuild scheduler: a single loop under the server
// lifecycle that, on every tick, dispatches each stale (shard, model)
// target to its own rebuild goroutine — training the default model
// where no snapshot exists yet and retraining published snapshots that
// live events have made stale. Nothing else feeds training, so a shard
// that ingested nothing is never retrained.
//
// Dispatch is per target, not per pass: a target starts the moment a
// worker slot is free and it is not already in flight, and it holds its
// slot only for its own fit. A slow model (a DirectAUC-ES retrain) keeps
// one slot busy while a fast one (Heuristic-Age) republishes on every
// tick through the others; a target that finds every slot busy is
// counted deferred and retried on the next tick, ahead of every target
// that republished since (see staleTargets). Rebuilds start through
// the same helper as request-triggered training (startFitLocked), so
// they share its per-shard singleflight, cancellation and atomic
// publish:
//
//   - readers never block: the model's slot keeps serving the old
//     snapshot until the new one swaps in atomically (with its ETag
//     re-derived — deterministic training reproduces the same
//     validator, so client caches stay warm across rebuilds);
//   - a scheduled rebuild and a request-triggered train of the same
//     model collapse into one run (whoever installs the slot's job
//     first wins, the other joins or skips);
//   - BeginShutdown cancels every fit via the lifecycle context and
//     waits for their goroutines before it returns.

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"time"
)

// StartRebuildScheduler launches the background rebuild loop: every
// interval it dispatches each shard's unbuilt default model and every
// published snapshot trained before the shard's latest live event, with
// at most workers rebuilds running at once (workers <= 0 means
// GOMAXPROCS). An interval <= 0 disables the scheduler; starting twice
// is a no-op. The loop exits when BeginShutdown cancels the server
// lifecycle.
func (s *Server) StartRebuildScheduler(interval time.Duration, workers int) {
	if interval <= 0 {
		return
	}
	if !s.schedOn.CompareAndSwap(false, true) {
		return
	}
	s.schedInterval = interval
	s.rebuildSlots = newRebuildSlots(workers)
	s.log.Printf("serve: rebuild scheduler on: interval %s, %d workers", interval, cap(s.rebuildSlots))
	go s.schedulerLoop()
}

// newRebuildSlots returns the semaphore bounding concurrent scheduled
// rebuilds: workers slots, or GOMAXPROCS when workers <= 0.
func newRebuildSlots(workers int) chan struct{} {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return make(chan struct{}, workers)
}

func (s *Server) schedulerLoop() {
	ticker := time.NewTicker(s.schedInterval)
	defer ticker.Stop()
	// One immediate tick so cold shards warm at boot instead of a full
	// interval later.
	for {
		s.metrics.schedPasses.Inc()
		s.dispatch(s.staleTargets())
		select {
		case <-s.lifecycle.Done():
			return
		case <-ticker.C:
		}
	}
}

// rebuildTarget is one (shard, model) pair to rebuild; seq is the event
// seq its published snapshot trained at, -1 when it has none.
type rebuildTarget struct {
	sh   *shard
	name string
	seq  int64
}

// staleTargets lists what a tick rebuilds: each shard's unbuilt default
// model and every published snapshot trained before the shard's latest
// live event, oldest first — unbuilt targets, then by the event seq the
// snapshot trained at, ties in (shard, model slot) order. Oldest first
// is what bounds staleness
// under steady ingest: a target that found every slot busy keeps its old
// seq and so takes the first free slot on a later tick, while a target
// that just republished moves behind every target still waiting.
func (s *Server) staleTargets() []rebuildTarget {
	def := s.defaultModel
	var targets []rebuildTarget
	for _, sh := range s.shards {
		if sh.slot(def).snap.Load() == nil {
			targets = append(targets, rebuildTarget{sh, def, -1})
		}
		// A snapshot is stale when live events have been ingested past
		// the seq it trained at; training is deterministic in the data,
		// so retraining anything else would reproduce the same snapshot.
		seqNow := sh.eventSeqNow()
		for i := range sh.models {
			sl := &sh.models[i]
			if tm := sl.snap.Load(); tm != nil && tm.eventSeq < seqNow {
				targets = append(targets, rebuildTarget{sh, sl.name, tm.eventSeq})
			}
		}
	}
	slices.SortStableFunc(targets, func(a, b rebuildTarget) int { return cmp.Compare(a.seq, b.seq) })
	return targets
}

// dispatch starts one rebuild per target that is not already in flight
// (a request or an earlier tick is training it: the rebuild is already
// happening), as long as a worker slot is free. Targets that find every
// slot busy are returned as deferred, and counted, for the next tick.
// wait blocks until every rebuild this call started has published or
// failed. Once BeginShutdown has begun, dispatch starts nothing.
func (s *Server) dispatch(targets []rebuildTarget) (deferred []rebuildTarget, wait func()) {
	var started sync.WaitGroup
	slots := s.rebuildSlots
	for _, t := range targets {
		sh, sl := t.sh, t.sh.slot(t.name)
		sh.mu.Lock()
		if sl.job != nil {
			sh.mu.Unlock()
			continue
		}
		select {
		case slots <- struct{}{}:
		default:
			sh.mu.Unlock()
			s.metrics.schedDeferred.Inc()
			deferred = append(deferred, t)
			continue
		}
		started.Add(1)
		job := s.startFitLocked(sh, sl, func(job *trainJob) {
			if job.err != nil {
				s.metrics.schedFailures.Inc()
				sh.rebuildFailures.Inc()
				s.log.Printf("serve: scheduled rebuild of %s/%s failed: %v", sh.region, sl.name, job.err)
			}
			<-slots
			started.Done()
		})
		if job == nil {
			sh.mu.Unlock()
			started.Done()
			<-slots
			break
		}
		// Counted under sh.mu, which the fit takes to publish: whoever
		// sees the new snapshot also sees the rebuild counted.
		s.metrics.schedRebuilds.Inc()
		sh.rebuilds.Inc()
		sh.mu.Unlock()
	}
	return deferred, started.Wait
}
