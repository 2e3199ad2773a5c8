package serve

// Drift-window tests: the incrementally maintained window must equal a
// brute-force rescan of the overlays after every applied event, the
// scrape-time AUC gauges must equal the AUC over the rescanned labels,
// and applying an event must cost the same allocations however much
// history came before it.

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/wal"
)

// rescanWindow recomputes the drift window from scratch: the newest day
// index over every applied failure, and the per-pipe count of failures
// strictly after its start.
func rescanWindow(ing *ingestState) map[string]int {
	newest := 0
	for _, f := range ing.failures {
		newest = max(newest, f.Year*366+f.Day)
	}
	counts := map[string]int{}
	for _, f := range ing.failures {
		if f.Year*366+f.Day > newest-ing.windowDays {
			counts[f.PipeID]++
		}
	}
	return counts
}

// TestDriftWindowMatchesRescan applies random event streams — days and
// years out of order, renewals interleaved, windows from one day to a
// year — and checks the window state and count gauges against a rescan
// after every event.
func TestDriftWindowMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, windowDays := range []int{1, 30, 366, 1000} {
		ing := &ingestState{
			seen:          map[string]struct{}{},
			inWindow:      make([]int32, 15),
			windowDays:    windowDays,
			gLiveEvents:   new(obs.Gauge),
			gWindowEvents: new(obs.Gauge),
		}
		for i := 0; i < 600; i++ {
			row := rng.Intn(15)
			ev := walEvent{
				ID:     fmt.Sprintf("w%d-%d", windowDays, i),
				Type:   "failure",
				PipeID: fmt.Sprintf("P%d", row),
				Year:   2000 + rng.Intn(4),
				Day:    1 + rng.Intn(366),
				row:    row,
			}
			if rng.Intn(6) == 0 {
				ev.Type = "renewal"
			}
			ing.applyLocked(&ev)

			want := rescanWindow(ing)
			total := 0
			for row, n := range ing.inWindow {
				pipe := fmt.Sprintf("P%d", row)
				total += want[pipe]
				if int(n) != want[pipe] {
					t.Fatalf("window %d, event %d: pipe %s has %d in-window failures, rescan %d",
						windowDays, i, pipe, n, want[pipe])
				}
			}
			if len(ing.window) != total || ing.gWindowEvents.Value() != float64(total) {
				t.Fatalf("window %d, event %d: window_events %d (gauge %v), rescan %d",
					windowDays, i, len(ing.window), ing.gWindowEvents.Value(), total)
			}
			if got := ing.gLiveEvents.Value(); got != float64(i+1) {
				t.Fatalf("window %d, event %d: live_events gauge %v", windowDays, i, got)
			}
		}
	}
}

// TestDriftGaugesMatchRescan drives random events through the HTTP
// handler and, at each quiescent point, scrapes /metrics and compares
// the AUC gauges with the AUC over rescanned window labels.
func TestDriftGaugesMatchRescan(t *testing.T) {
	s, ts := newEventServer(t, t.TempDir(), EventLogConfig{Sync: wal.SyncNever, WindowDays: 90})
	def := string(s.defaultModel)
	if code := postJSON(t, ts.URL+"/api/models/"+def+"/train", nil, nil); code != http.StatusOK {
		t.Fatalf("train status %d", code)
	}
	reg := obs.Default()
	pipes := s.def.data.Pipes()
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 6; round++ {
		for i := 0; i < 40; i++ {
			body := map[string]any{
				"id":      fmt.Sprintf("dg-%d-%d", round, i),
				"pipe_id": pipes[rng.Intn(len(pipes))].ID,
				"year":    s.def.data.ObservedTo - 1 + rng.Intn(3),
				"day":     1 + rng.Intn(366),
			}
			if code := postJSON(t, ts.URL+"/api/events", body, nil); code != http.StatusOK {
				t.Fatalf("event status %d", code)
			}
		}
		if round == 3 {
			rebuildAll(s, s.staleTargets()) // a new default snapshot
		}
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()

		ing := s.def.ingest
		tm := s.def.snapshot(def)
		window := rescanWindow(ing)
		labels := make([]bool, len(tm.ranking.PipeIDs))
		for i, id := range tm.ranking.PipeIDs {
			labels[i] = window[id] > 0
		}
		if got, want := reg.Gauge("serve.shard.a.drift.live_auc").Value(), eval.AUC(tm.ranking.Scores, labels); got != want {
			t.Fatalf("round %d: drift.live_auc %v, rescan %v", round, got, want)
		}
		if got, want := reg.Gauge("serve.shard.a.drift.train_auc").Value(), tm.ranking.AUC(); got != want {
			t.Fatalf("round %d: drift.train_auc %v, want %v", round, got, want)
		}
		if got, want := reg.Gauge("serve.shard.a.drift.seq").Value(), float64(s.def.eventSeqNow()); got != want {
			t.Fatalf("round %d: drift.seq %v, want %v", round, got, want)
		}
	}
}

// TestEventsAllocsFlatWithHistory: a POST /api/events costs the same
// allocations after 5,000 applied events as after 100 — nothing on the
// request path scans the history.
func TestEventsAllocsFlatWithHistory(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s, _ := newEventServer(t, t.TempDir(), EventLogConfig{Sync: wal.SyncNever})
	pipes := s.def.data.Pipes()
	year := s.def.data.ObservedTo + 1
	w := &nopWriter{h: make(http.Header)}
	n := 0
	post := func(prefix string, k int) {
		body := fmt.Sprintf(`{"id":"%s-%06d","pipe_id":%q,"year":%d,"day":%d}`,
			prefix, k, pipes[k%len(pipes)].ID, year, k%366+1)
		s.handleEvents(w, httptest.NewRequest("POST", "/api/events", strings.NewReader(body)))
		n++
	}
	// Both measurements post the same bodies but for the ID prefix, so
	// decoding costs the same at both points; only the history differs.
	measure := func(prefix string) float64 {
		k := 0
		return testing.AllocsPerRun(200, func() { post(prefix, k); k++ })
	}
	for n < 100 {
		post("fill", n)
	}
	early := measure("a")
	for n < 5000 {
		post("fill", n)
	}
	late := measure("b")
	if got := s.def.eventSeqNow(); got != int64(n) {
		t.Fatalf("applied %d events, posted %d", got, n)
	}
	if late != early {
		t.Fatalf("allocs per POST %v after 5,000 events, %v after 100", late, early)
	}
}
