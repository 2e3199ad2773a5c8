package serve

// WAL chaos matrix at the serving layer. Each case kills the default
// shard's event log at a labeled crash point mid-ingest (in-process
// SIGKILL model: controlled loss of the user-space buffer), then boots
// a fresh server over the same directory and checks the two recovery
// invariants the durability contract promises:
//
//   1. Exactly-once: every acknowledged event survives the restart, and
//      after the client retries the full sequence, each event is applied
//      exactly once (dedup absorbs both replayed-unacked frames and
//      retries of acked ones).
//   2. Determinism: the recovered server retrains the default model to a
//      bit-identical ranking ETag as a no-crash control run over the
//      same event sequence.

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/wal"
)

// chaosEvent builds the i-th event of the fixed chaos sequence against
// sh's registry: distinct IDs, rotating pipes, distinct days.
func chaosEvent(sh *shard, i int) map[string]any {
	pipes := sh.data.Pipes()
	p := pipes[i%len(pipes)]
	return map[string]any{
		"id":      fmt.Sprintf("chaos-%d", i),
		"pipe_id": p.ID,
		"year":    sh.data.ObservedTo + 1,
		"day":     i + 1,
		"mode":    "BREAK",
	}
}

// trainedETag trains the default model and returns its ranking ETag.
func trainedETag(t *testing.T, s *Server, ts *httptest.Server) string {
	t.Helper()
	def := string(s.defaultModel)
	if code := postJSON(t, ts.URL+"/api/models/"+def+"/train", nil, nil); code != 200 {
		t.Fatalf("train status %d", code)
	}
	return fetchRankingETag(t, ts.URL+"/api/models/"+def+"/ranking")
}

func TestChaosWALIngestCrashMatrix(t *testing.T) {
	const total = 5
	cfg := EventLogConfig{Sync: wal.SyncAlways, SegmentBytes: 256}

	// No-crash control: the full sequence, then the default model's ETag.
	ctrl, ctrlTS := newEventServer(t, t.TempDir(), cfg)
	for i := 0; i < total; i++ {
		if code := postJSON(t, ctrlTS.URL+"/api/events", chaosEvent(ctrl.def, i), nil); code != 200 {
			t.Fatalf("control post %d status %d", i, code)
		}
	}
	wantETag := trainedETag(t, ctrl, ctrlTS)

	cases := []struct {
		label  string
		action wal.Action
		hit    int
	}{
		{wal.PointAppendEnter, wal.Die, 3},
		{wal.PointAppendFramed, wal.Die, 3},
		{wal.PointAppendFramed, wal.DieFlushHalf, 3},
		{wal.PointAppendFramed, wal.DieFlushAll, 3},
		{wal.PointRotate, wal.Die, 1},
		{wal.PointSynced, wal.Die, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s/action%d/hit%d", tc.label, tc.action, tc.hit), func(t *testing.T) {
			dir := t.TempDir()
			s1, ts1 := newEventServer(t, dir, cfg)
			hits := 0
			s1.def.ingest.wal.SetCrashHook(func(label string) wal.Action {
				if label != tc.label {
					return wal.Continue
				}
				hits++
				if hits == tc.hit {
					return tc.action
				}
				return wal.Continue
			})
			acked := 0
			for i := 0; i < total; i++ {
				var resp eventsResponse
				code := postJSON(t, ts1.URL+"/api/events", chaosEvent(s1.def, i), &resp)
				if code != 200 {
					break // the crash: a 503, never a false ack
				}
				acked += resp.Accepted
			}
			if acked == 0 || acked == total {
				t.Fatalf("crash point never fired mid-sequence: %d/%d acked", acked, total)
			}

			// "Restart": a fresh server recovers the same directory.
			s2, ts2 := newEventServer(t, dir, cfg)
			recovered := int(s2.def.eventSeqNow())
			if recovered < acked {
				t.Fatalf("recovered %d events but %d were acknowledged — lost an ack", recovered, acked)
			}
			if recovered > total {
				t.Fatalf("recovered %d events from a %d-event sequence — duplicated on replay", recovered, total)
			}
			// Client retry of the whole sequence: dedup must absorb every
			// recovered event and fill in only the lost ones.
			var accepted, dups int
			for i := 0; i < total; i++ {
				var resp eventsResponse
				if code := postJSON(t, ts2.URL+"/api/events", chaosEvent(s2.def, i), &resp); code != 200 {
					t.Fatalf("retry post %d status %d", i, code)
				}
				accepted += resp.Accepted
				dups += resp.Duplicates
			}
			if dups != recovered || accepted != total-recovered {
				t.Fatalf("retry accepted %d / deduped %d over %d recovered — not exactly-once", accepted, dups, recovered)
			}
			if got := int(s2.def.eventSeqNow()); got != total {
				t.Fatalf("final live seq %d, want %d", got, total)
			}
			if got := trainedETag(t, s2, ts2); got != wantETag {
				t.Fatalf("recovered ETag %s != no-crash control %s", got, wantETag)
			}
		})
	}
}

// TestChaosIngestStormDuringRebuilds hammers POST /api/events from
// several goroutines while scheduler-style rebuilds run, then checks
// the final rebuild trains at the final event seq — the -race proof
// that live ingest, pipeline extension and atomic publish compose.
func TestChaosIngestStormDuringRebuilds(t *testing.T) {
	s, ts := newEventServer(t, t.TempDir(), EventLogConfig{Sync: wal.SyncAlways})
	def := string(s.defaultModel)
	if code := postJSON(t, ts.URL+"/api/models/"+def+"/train", nil, nil); code != 200 {
		t.Fatal("base train failed")
	}

	const workers, perWorker = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			pipes := s.def.data.Pipes()
			for i := 0; i < perWorker; i++ {
				body := map[string]any{
					"id":      fmt.Sprintf("storm-%d-%d", w, i),
					"pipe_id": pipes[(w*perWorker+i)%len(pipes)].ID,
					"year":    s.def.data.ObservedTo + 1,
					"day":     (w*perWorker+i)%366 + 1,
				}
				if code := postJSON(t, ts.URL+"/api/events", body, nil); code != 200 {
					t.Errorf("storm post %d/%d status %d", w, i, code)
					return
				}
			}
		}()
	}
	rebuildsDone := make(chan struct{})
	go func() {
		defer close(rebuildsDone)
		for i := 0; i < 3; i++ {
			rebuildAll(s, []rebuildTarget{{sh: s.def, name: def}})
		}
	}()
	wg.Wait()
	<-rebuildsDone

	if got := s.def.eventSeqNow(); got != workers*perWorker {
		t.Fatalf("final seq %d, want %d", got, workers*perWorker)
	}
	// One more pass now that ingest has quiesced: the published snapshot
	// must catch up to the final seq.
	rebuildAll(s, []rebuildTarget{{sh: s.def, name: def}})
	tm := s.def.snapshot(def)
	if tm.eventSeq != int64(workers*perWorker) {
		t.Fatalf("final snapshot trained at seq %d, want %d", tm.eventSeq, workers*perWorker)
	}
}
