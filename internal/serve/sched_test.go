package serve

// Rebuild-scheduler tests: the background loop trains unbuilt shards,
// a forced pass rotates every published snapshot atomically (and —
// training being deterministic — bit-identically), in-flight training
// is never duplicated, and the off switch is really off.

import (
	"context"
	"net/http"
	"testing"
	"time"

	"repro/internal/wal"
)

func TestSchedulerTrainsUnbuiltShards(t *testing.T) {
	s, _ := newMultiTestServer(t)
	passesBefore := s.metrics.schedPasses.Value()
	rebuildsBefore := s.metrics.schedRebuilds.Value()
	s.StartRebuildScheduler(50*time.Millisecond, 2)
	defer s.BeginShutdown()

	def := string(s.defaultModel)
	waitFor(t, func() bool {
		for _, sh := range s.shards {
			if _, ok := (*sh.models.Load())[def]; !ok {
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
	// Nothing is stale (no events); only force finds targets.
	s.schedulerPass(true)

	after, ok := (*s.def.models.Load())["Heuristic-Age"]
	if !ok {
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
	s.def.pending["Heuristic-Age"] = job
	s.def.mu.Unlock()
	defer func() {
		s.def.mu.Lock()
		delete(s.def.pending, "Heuristic-Age")
		s.def.mu.Unlock()
	}()

	rebuildsBefore := s.metrics.schedRebuilds.Value()
	s.rebuild(s.def, "Heuristic-Age")
	if got := s.metrics.schedRebuilds.Value() - rebuildsBefore; got != 0 {
		t.Fatalf("rebuild of an in-flight model started %d trainers, want 0", got)
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
// published model on the shard stale, and the next pass rebuilds each
// exactly once.
func TestSchedulerRebuildsOnlyOnEvents(t *testing.T) {
	s, ts := newEventServer(t, t.TempDir(), EventLogConfig{Sync: wal.SyncAlways})
	def := string(s.defaultModel)
	s.schedulerPass(false) // first build of the default model
	if _, err := s.get(context.Background(), "Heuristic-Age"); err != nil {
		t.Fatal(err)
	}
	published := len(*s.def.models.Load())
	if published != 2 {
		t.Fatalf("published %d models, want %s and Heuristic-Age", published, def)
	}

	rebuildsBefore := s.metrics.schedRebuilds.Value()
	s.schedulerPass(false)
	s.schedulerPass(false)
	if got := s.metrics.schedRebuilds.Value() - rebuildsBefore; got != 0 {
		t.Fatalf("passes with no new events started %d rebuilds, want 0", got)
	}

	if code := postJSON(t, ts.URL+"/api/events", eventBody(s.def, "sched-1"), nil); code != http.StatusOK {
		t.Fatalf("event status %d", code)
	}
	s.schedulerPass(false)
	if got := s.metrics.schedRebuilds.Value() - rebuildsBefore; got != int64(published) {
		t.Fatalf("pass after one event started %d rebuilds, want %d (one per stale model)", got, published)
	}
	for name, tm := range *s.def.models.Load() {
		if tm.eventSeq != 1 {
			t.Fatalf("%s rebuilt at event seq %d, want 1", name, tm.eventSeq)
		}
	}
}
