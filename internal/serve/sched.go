package serve

// Background rebuild scheduler: a single loop under the server
// lifecycle that periodically sweeps every shard, training the default
// model where no snapshot exists yet and retraining published snapshots
// that live events have made stale. Nothing else feeds training, so a
// shard that ingested nothing is never retrained. Rebuilds run through
// the exact same per-shard singleflight, cancellation and atomic-publish
// machinery as request-triggered training, so:
//
//   - readers never block: the published copy-on-write map keeps
//     serving the old snapshot until the new one swaps in atomically
//     (with its ETag re-derived — deterministic training reproduces the
//     same validator, so client caches stay warm across rebuilds);
//   - a scheduled rebuild and a request-triggered train of the same
//     model collapse into one run (whoever gets the pending slot first
//     wins, the other joins or skips);
//   - BeginShutdown cancels the sweep and any in-flight rebuild via the
//     lifecycle context.

import (
	"context"
	"sort"
	"time"

	"repro/internal/parallel"
)

// StartRebuildScheduler launches the background rebuild loop: every
// interval it builds each shard's unbuilt default model and rebuilds
// any published snapshot trained before the shard's latest live event,
// fanning work across at most workers concurrent rebuilds (workers <= 0
// means GOMAXPROCS). An interval <= 0 disables the scheduler; starting
// twice is a no-op. The loop exits when BeginShutdown cancels the server
// lifecycle.
func (s *Server) StartRebuildScheduler(interval time.Duration, workers int) {
	if interval <= 0 {
		return
	}
	if !s.schedOn.CompareAndSwap(false, true) {
		return
	}
	s.schedInterval = interval
	s.schedPool = parallel.New(workers)
	s.log.Printf("serve: rebuild scheduler on: interval %s, %d workers", interval, s.schedPool.Workers())
	go s.schedulerLoop()
}

func (s *Server) schedulerLoop() {
	ticker := time.NewTicker(s.schedInterval)
	defer ticker.Stop()
	// One immediate pass so cold shards warm at boot instead of a full
	// interval later.
	s.schedulerPass(false)
	for {
		select {
		case <-s.lifecycle.Done():
			return
		case <-ticker.C:
			s.schedulerPass(false)
		}
	}
}

// rebuildTarget is one (shard, model) pair a pass decided to rebuild.
type rebuildTarget struct {
	sh   *shard
	name string
}

// schedulerPass sweeps every shard once and rebuilds what it finds
// stale (or everything published, when force is set — the benchmark
// hook). Targets are sorted (region, model) so a pass is deterministic
// regardless of map iteration order.
func (s *Server) schedulerPass(force bool) {
	s.metrics.schedPasses.Inc()
	def := s.defaultModel
	var targets []rebuildTarget
	for _, sh := range s.shards {
		models := *sh.models.Load()
		if _, ok := models[def]; !ok {
			targets = append(targets, rebuildTarget{sh, def})
		}
		// A snapshot is stale when live events have been ingested past
		// the seq it trained at; training is deterministic in the data,
		// so retraining anything else would reproduce the same snapshot.
		seqNow := sh.eventSeqNow()
		for name, tm := range models {
			if force || tm.eventSeq < seqNow {
				targets = append(targets, rebuildTarget{sh, name})
			}
		}
	}
	if len(targets) == 0 {
		return
	}
	sort.Slice(targets, func(i, j int) bool {
		if targets[i].sh.region != targets[j].sh.region {
			return targets[i].sh.region < targets[j].sh.region
		}
		return targets[i].name < targets[j].name
	})
	// Bounded fan-out; the lifecycle context stops handing out targets
	// once shutdown begins (in-flight rebuilds abort via their own
	// lifecycle-derived contexts).
	s.schedPool.ForEachDynamicCtx(s.lifecycle, len(targets), func(i int) {
		s.rebuild(targets[i].sh, targets[i].name)
	})
}

// rebuild retrains one model on one shard through the shard's
// singleflight: if a request (or an earlier target) is already training
// it, the rebuild is already happening and this one skips. The train
// runs synchronously inside the scheduler worker; request-path waiters
// that arrive meanwhile join the pending job as usual.
func (s *Server) rebuild(sh *shard, name string) {
	sh.mu.Lock()
	if _, inflight := sh.pending[name]; inflight {
		sh.mu.Unlock()
		return
	}
	tctx, cancel := context.WithCancel(s.lifecycle)
	job := &trainJob{done: make(chan struct{}), cancel: cancel, waiters: 1}
	sh.pending[name] = job
	sh.mu.Unlock()

	s.metrics.schedRebuilds.Inc()
	sh.rebuilds.Inc()
	s.runTrain(tctx, sh, name, job)
	if job.err != nil {
		s.metrics.schedFailures.Inc()
		sh.rebuildFailures.Inc()
		s.log.Printf("serve: scheduled rebuild of %s/%s failed: %v", sh.region, name, job.err)
	}
}
