package serve

// Rebuild-scheduler tests: the background loop trains unbuilt shards,
// a forced dispatch rotates every published snapshot atomically (and —
// training being deterministic — bit-identically), in-flight training
// is never duplicated, a slow fit never holds back a fast model, the
// shutdown path leaves no rebuild running, and the off switch is really
// off.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wal"
)

// rebuildAll dispatches targets, waiting on each round, until none is
// deferred: every target not already in flight is rebuilt exactly once.
func rebuildAll(s *Server, targets []rebuildTarget) {
	for len(targets) > 0 {
		var wait func()
		targets, wait = s.dispatch(targets)
		wait()
	}
}

// snapshot returns the published snapshot of the named model, nil when
// the model is unknown or not yet published.
func (sh *shard) snapshot(name string) *modelSnapshot {
	if sl := sh.slot(name); sl != nil {
		return sl.snap.Load()
	}
	return nil
}

// publishedModels maps each model published on sh to its snapshot.
func publishedModels(sh *shard) map[string]*modelSnapshot {
	out := map[string]*modelSnapshot{}
	for i := range sh.models {
		if tm := sh.models[i].snap.Load(); tm != nil {
			out[sh.models[i].name] = tm
		}
	}
	return out
}

// inflightFits counts the fits in flight on sh.
func inflightFits(sh *shard) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := 0
	for i := range sh.models {
		if sh.models[i].job != nil {
			n++
		}
	}
	return n
}

// forcedTargets is every shard's default model plus every published
// snapshot, stale or not.
func forcedTargets(s *Server) []rebuildTarget {
	var out []rebuildTarget
	for _, sh := range s.shards {
		models := publishedModels(sh)
		if _, ok := models[s.defaultModel]; !ok {
			out = append(out, rebuildTarget{sh: sh, name: s.defaultModel})
		}
		for name := range models {
			out = append(out, rebuildTarget{sh: sh, name: name})
		}
	}
	return out
}

func TestSchedulerTrainsUnbuiltShards(t *testing.T) {
	s, _ := newMultiTestServer(t)
	passesBefore := s.metrics.schedPasses.Value()
	rebuildsBefore := s.metrics.schedRebuilds.Value()
	s.StartRebuildScheduler(50*time.Millisecond, 2)
	defer s.BeginShutdown()

	def := string(s.defaultModel)
	waitFor(t, func() bool {
		for _, sh := range s.shards {
			if sh.snapshot(def) == nil {
				return false
			}
		}
		return true
	})
	if got := s.metrics.schedPasses.Value() - passesBefore; got < 1 {
		t.Fatalf("scheduler pass counter delta %d, want >= 1", got)
	}
	if got := s.metrics.schedRebuilds.Value() - rebuildsBefore; got < 2 {
		t.Fatalf("scheduled rebuild counter delta %d, want >= 2 (one per shard)", got)
	}
	for _, sh := range s.shards {
		if sh.rebuilds.Value() < 1 {
			t.Fatalf("shard %s rebuild counter %d, want >= 1", sh.region, sh.rebuilds.Value())
		}
	}
}

// TestSchedulerRebuildAtomicIdentical forces a rebuild of a published
// model and checks the snapshot pointer rotated (a genuinely new
// snapshot was published, atomically, while the old one kept serving)
// yet the ETag and ranking are bit-identical — deterministic training
// means a rebuild is invisible to clients and their caches.
func TestSchedulerRebuildAtomicIdentical(t *testing.T) {
	s, _ := newTestServer(t)
	before, err := s.get(context.Background(), "Heuristic-Age")
	if err != nil {
		t.Fatal(err)
	}
	// Nothing is stale (no events); only a forced dispatch rebuilds.
	rebuildAll(s, forcedTargets(s))

	after := s.def.snapshot("Heuristic-Age")
	if after == nil {
		t.Fatal("model vanished across a rebuild")
	}
	if after == before {
		t.Fatal("forced pass did not rotate the snapshot")
	}
	if after.etag != before.etag {
		t.Fatalf("rebuild changed the ETag: %s -> %s", before.etag, after.etag)
	}
	if len(after.entries) != len(before.entries) {
		t.Fatalf("rebuild changed the ranking length: %d -> %d", len(before.entries), len(after.entries))
	}
	for i := range after.entries {
		if after.entries[i] != before.entries[i] {
			t.Fatalf("entry %d diverged across rebuild: %+v -> %+v", i, before.entries[i], after.entries[i])
		}
	}
}

// TestSchedulerSkipsInflightTraining: a (shard, model) pair already in
// the singleflight table must not get a second concurrent trainer.
func TestSchedulerSkipsInflightTraining(t *testing.T) {
	s, _ := newTestServer(t)
	job := &trainJob{done: make(chan struct{})}
	s.def.mu.Lock()
	s.def.slot("Heuristic-Age").job = job
	s.def.mu.Unlock()
	defer func() {
		s.def.mu.Lock()
		s.def.slot("Heuristic-Age").job = nil
		s.def.mu.Unlock()
	}()

	rebuildsBefore := s.metrics.schedRebuilds.Value()
	deferred, wait := s.dispatch([]rebuildTarget{{sh: s.def, name: "Heuristic-Age"}})
	wait()
	if got := s.metrics.schedRebuilds.Value() - rebuildsBefore; got != 0 || len(deferred) != 0 {
		t.Fatalf("dispatch of an in-flight model started %d trainers and deferred %d, want 0 and 0", got, len(deferred))
	}
}

func TestSchedulerDisabledAndIdempotent(t *testing.T) {
	s, _ := newTestServer(t)
	s.StartRebuildScheduler(0, 2) // interval <= 0: off
	if s.schedOn.Load() {
		t.Fatal("scheduler armed with a zero interval")
	}
	s.StartRebuildScheduler(time.Hour, 1)
	if !s.schedOn.Load() {
		t.Fatal("scheduler did not arm")
	}
	s.StartRebuildScheduler(time.Nanosecond, 8) // second start: no-op
	if s.schedInterval != time.Hour {
		t.Fatalf("second start changed the interval to %s", s.schedInterval)
	}
	s.BeginShutdown()
}

// TestSchedulerRebuildsOnlyOnEvents: rebuilds are change-driven. Once
// the published snapshots exist, passes with no new events start no
// rebuilds however much time goes by; one applied event makes every
// published model on the shard stale, and the next dispatch rebuilds
// each exactly once.
func TestSchedulerRebuildsOnlyOnEvents(t *testing.T) {
	s, ts := newEventServer(t, t.TempDir(), EventLogConfig{Sync: wal.SyncAlways})
	def := string(s.defaultModel)
	rebuildAll(s, s.staleTargets()) // first build of the default model
	if _, err := s.get(context.Background(), "Heuristic-Age"); err != nil {
		t.Fatal(err)
	}
	published := s.def.published()
	if published != 2 {
		t.Fatalf("published %d models, want %s and Heuristic-Age", published, def)
	}

	rebuildsBefore := s.metrics.schedRebuilds.Value()
	rebuildAll(s, s.staleTargets())
	rebuildAll(s, s.staleTargets())
	if got := s.metrics.schedRebuilds.Value() - rebuildsBefore; got != 0 {
		t.Fatalf("passes with no new events started %d rebuilds, want 0", got)
	}

	if code := postJSON(t, ts.URL+"/api/events", eventBody(s.def, "sched-1"), nil); code != http.StatusOK {
		t.Fatalf("event status %d", code)
	}
	rebuildAll(s, s.staleTargets())
	if got := s.metrics.schedRebuilds.Value() - rebuildsBefore; got != int64(published) {
		t.Fatalf("dispatch after one event started %d rebuilds, want %d (one per stale model)", got, published)
	}
	for name, tm := range publishedModels(s.def) {
		if tm.eventSeq != 1 {
			t.Fatalf("%s rebuilt at event seq %d, want 1", name, tm.eventSeq)
		}
	}
}

// TestSchedulerSlowFitDoesNotHoldBackFastModel: with the default model's
// fit blocked through the trainFn seam, Heuristic-Age keeps
// republishing at every new event seq on later ticks.
func TestSchedulerSlowFitDoesNotHoldBackFastModel(t *testing.T) {
	s, ts := newEventServer(t, t.TempDir(), EventLogConfig{Sync: wal.SyncAlways})
	def := string(s.defaultModel)
	for _, name := range []string{def, "Heuristic-Age"} {
		if _, err := s.get(context.Background(), name); err != nil {
			t.Fatal(err)
		}
	}
	slowStarted := make(chan struct{}, 1)
	s.trainFn = func(ctx context.Context, sh *shard, name string) (*modelSnapshot, error) {
		if name == def {
			slowStarted <- struct{}{}
			<-ctx.Done() // held until shutdown
			return nil, ctx.Err()
		}
		return s.train(ctx, sh, name)
	}
	s.StartRebuildScheduler(10*time.Millisecond, 2)
	defer s.BeginShutdown()

	for i := 1; i <= 3; i++ {
		if code := postJSON(t, ts.URL+"/api/events", eventBody(s.def, fmt.Sprintf("slow-%d", i)), nil); code != http.StatusOK {
			t.Fatalf("event status %d", code)
		}
		if i == 1 {
			<-slowStarted
		}
		waitFor(t, func() bool { return s.def.snapshot("Heuristic-Age").eventSeq == int64(i) })
	}
	s.def.mu.Lock()
	slowInflight := s.def.slot(def).job != nil
	s.def.mu.Unlock()
	if !slowInflight {
		t.Fatal("the blocked default-model rebuild is no longer in flight")
	}
	if got := s.def.snapshot(def).eventSeq; got != 0 {
		t.Fatalf("blocked model republished at seq %d", got)
	}
}

// TestShutdownWaitsForDispatchedRebuilds: BeginShutdown cancels a
// dispatched rebuild and returns only after its goroutine has finished —
// no trainer running, no singleflight slot held, no worker slot taken —
// and a dispatch after shutdown starts nothing.
func TestShutdownWaitsForDispatchedRebuilds(t *testing.T) {
	s, _ := newTestServer(t)
	started := make(chan struct{})
	var running atomic.Int32
	s.trainFn = func(ctx context.Context, sh *shard, name string) (*modelSnapshot, error) {
		running.Add(1)
		defer running.Add(-1)
		close(started)
		<-ctx.Done()
		time.Sleep(20 * time.Millisecond) // a fit winding down after cancellation
		return nil, ctx.Err()
	}
	s.StartRebuildScheduler(time.Hour, 2) // the boot tick dispatches the default model
	<-started
	s.BeginShutdown()

	if n := running.Load(); n != 0 {
		t.Fatalf("%d trainers still running after BeginShutdown", n)
	}
	if pending := inflightFits(s.def); pending != 0 {
		t.Fatalf("%d singleflight slots held after BeginShutdown", pending)
	}
	if n := len(s.rebuildSlots); n != 0 {
		t.Fatalf("%d worker slots held after BeginShutdown", n)
	}
	rebuildsBefore := s.metrics.schedRebuilds.Value()
	if deferred, wait := s.dispatch(forcedTargets(s)); len(deferred) != 0 {
		t.Fatalf("dispatch after shutdown deferred %d targets", len(deferred))
	} else {
		wait()
	}
	if got := s.metrics.schedRebuilds.Value() - rebuildsBefore; got != 0 {
		t.Fatalf("dispatch after shutdown started %d rebuilds", got)
	}
}

// TestShutdownWaitsForRequestStartedFits: a fit started by a request,
// not the scheduler, is cancelled by BeginShutdown too, and
// BeginShutdown returns only after it has exited — even when the trainer
// lingers after its context is cancelled.
func TestShutdownWaitsForRequestStartedFits(t *testing.T) {
	s, ts := newTestServer(t)
	started := make(chan struct{})
	var running atomic.Int32
	s.trainFn = func(ctx context.Context, sh *shard, name string) (*modelSnapshot, error) {
		running.Add(1)
		defer running.Add(-1)
		close(started)
		<-ctx.Done()
		time.Sleep(50 * time.Millisecond) // a fit winding down after cancellation
		return nil, ctx.Err()
	}
	code := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/api/models/Heuristic-Age/train", "application/json", nil)
		if err != nil {
			code <- 0
			return
		}
		resp.Body.Close()
		code <- resp.StatusCode
	}()
	<-started
	s.BeginShutdown()
	if n := running.Load(); n != 0 {
		t.Fatalf("%d request-started trainers still running after BeginShutdown", n)
	}
	if n := inflightFits(s.def); n != 0 {
		t.Fatalf("%d fits in flight after BeginShutdown", n)
	}
	if c := <-code; c != http.StatusServiceUnavailable {
		t.Fatalf("train request cut by shutdown answered %d, want 503", c)
	}
	if _, err := s.get(context.Background(), "Heuristic-Age"); !errors.Is(err, context.Canceled) {
		t.Fatalf("get after shutdown: %v, want a cancellation error", err)
	}
}

// TestSchedulerStaleTargetsDoNotStarve: with more stale targets than
// worker slots and an event before every tick, every published model
// republishes within one tick per target. The oldest snapshot takes the
// free slot, so a target that sorts first by name cannot take it on
// every tick.
func TestSchedulerStaleTargetsDoNotStarve(t *testing.T) {
	s, ts := newEventServer(t, t.TempDir(), EventLogConfig{Sync: wal.SyncAlways})
	models := []string{s.defaultModel, "Heuristic-Age", "Heuristic-Length", "Logistic", "Random"}
	for _, name := range models {
		if _, err := s.get(context.Background(), name); err != nil {
			t.Fatal(err)
		}
	}
	s.rebuildSlots = newRebuildSlots(1)
	n := len(models)
	for tick := 1; tick <= 3*n; tick++ {
		if code := postJSON(t, ts.URL+"/api/events", eventBody(s.def, fmt.Sprintf("steady-%d", tick)), nil); code != http.StatusOK {
			t.Fatalf("event status %d", code)
		}
		_, wait := s.dispatch(s.staleTargets()) // the scheduler loop's tick
		wait()
		if tick < n {
			continue
		}
		published := publishedModels(s.def)
		for _, name := range models {
			if seq := published[name].eventSeq; seq <= int64(tick-n) {
				t.Fatalf("tick %d: %s last republished at seq %d, more than %d ticks ago", tick, name, seq, n)
			}
		}
	}
}
