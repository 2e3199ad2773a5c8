package serve

// Streaming-ingest tests: the POST /api/events contract (single, NDJSON
// batch, validation, dedup, backpressure, unconfigured 503), WAL-backed
// replay on boot, and the scheduler-staleness / drift-gauge wiring.

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/wal"
)

// newEventServer builds a single-shard server with streaming ingest
// wired into dir. Returned ready to serve; the caller owns shutdown.
func newEventServer(t *testing.T, dir string, cfg EventLogConfig) (*Server, *httptest.Server) {
	t.Helper()
	net, err := pipefail.GenerateRegion("A", 5, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(net, log.New(io.Discard, "", 0), pipefail.WithESGenerations(8))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dir = dir
	if err := s.SetEventLog(cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.BeginShutdown)
	return s, ts
}

// eventBody builds one valid failure event against the shard's first
// pipe, in the first post-observation year.
func eventBody(sh *shard, id string) map[string]any {
	p := sh.net.Pipes()[0]
	return map[string]any{
		"id":      id,
		"pipe_id": p.ID,
		"year":    sh.net.ObservedTo + 1,
		"day":     100,
		"mode":    "BREAK",
	}
}

func TestEventsUnconfigured503(t *testing.T) {
	s, ts := newTestServer(t)
	var apiErr map[string]string
	code := postJSON(t, ts.URL+"/api/events", eventBody(s.def, "e1"), &apiErr)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 when no event log is configured", code)
	}
	if !strings.Contains(apiErr["error"], "not configured") {
		t.Fatalf("error %q should say the log is not configured", apiErr["error"])
	}
}

func TestEventsSingleAcceptAndDedup(t *testing.T) {
	s, ts := newEventServer(t, t.TempDir(), EventLogConfig{Sync: wal.SyncAlways})
	var resp eventsResponse
	if code := postJSON(t, ts.URL+"/api/events", eventBody(s.def, "evt-1"), &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Accepted != 1 || resp.Duplicates != 0 || resp.LiveEvents != 1 {
		t.Fatalf("response %+v, want 1 accepted", resp)
	}
	// A retry with the same ID is a duplicate, applied zero more times.
	if code := postJSON(t, ts.URL+"/api/events", eventBody(s.def, "evt-1"), &resp); code != http.StatusOK {
		t.Fatalf("retry status %d", code)
	}
	if resp.Accepted != 0 || resp.Duplicates != 1 || resp.LiveEvents != 1 {
		t.Fatalf("retry response %+v, want 1 duplicate and seq still 1", resp)
	}
	if got := s.def.eventSeqNow(); got != 1 {
		t.Fatalf("eventSeqNow = %d, want 1", got)
	}
	// /api/network and /api/regions surface the live-event count.
	var netBody map[string]any
	getJSON(t, ts.URL+"/api/network", &netBody)
	if n, _ := netBody["live_events"].(float64); n != 1 {
		t.Fatalf("network live_events = %v, want 1", netBody["live_events"])
	}
	var rows []regionStatus
	getJSON(t, ts.URL+"/api/regions", &rows)
	if len(rows) != 1 || rows[0].LiveEvents != 1 || rows[0].WalSegments < 1 || rows[0].WalBytes <= 0 {
		t.Fatalf("regions row %+v, want live WAL stats", rows)
	}
}

func TestEventsNDJSONBatch(t *testing.T) {
	s, ts := newEventServer(t, t.TempDir(), EventLogConfig{Sync: wal.SyncAlways})
	p := s.def.net.Pipes()[0]
	year := s.def.net.ObservedTo + 1
	var b strings.Builder
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&b, "{\"id\":\"b-%d\",\"pipe_id\":%q,\"year\":%d,\"day\":%d}\n", i, p.ID, year, i+1)
	}
	b.WriteString("\n")                                                                    // blank lines are skipped
	fmt.Fprintf(&b, "{\"id\":\"b-1\",\"pipe_id\":%q,\"year\":%d,\"day\":2}\n", p.ID, year) // in-batch dup
	resp, err := http.Post(ts.URL+"/api/events", "application/x-ndjson", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out eventsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 5 || out.Duplicates != 1 || out.LiveEvents != 5 {
		t.Fatalf("batch response %+v, want 5 accepted + 1 duplicate", out)
	}
}

func TestEventsValidationRejectsWholeBatch(t *testing.T) {
	s, ts := newEventServer(t, t.TempDir(), EventLogConfig{Sync: wal.SyncAlways})
	p := s.def.net.Pipes()[0]
	year := s.def.net.ObservedTo + 1
	cases := []struct {
		name string
		body map[string]any
		frag string
	}{
		{"missing id", map[string]any{"pipe_id": p.ID, "year": year, "day": 1}, "missing event id"},
		{"unknown pipe", map[string]any{"id": "x1", "pipe_id": "no-such-pipe", "year": year, "day": 1}, "unknown pipe"},
		{"bad day", map[string]any{"id": "x2", "pipe_id": p.ID, "year": year, "day": 400}, "day 400 out of range"},
		{"bad mode", map[string]any{"id": "x3", "pipe_id": p.ID, "year": year, "day": 1, "mode": "EXPLODED"}, "unknown failure mode"},
		{"bad type", map[string]any{"id": "x4", "pipe_id": p.ID, "year": year, "type": "party"}, "unknown event type"},
		{"bad segment", map[string]any{"id": "x5", "pipe_id": p.ID, "year": year, "day": 1, "segment": 99999}, "segment"},
		{"pre-window year", map[string]any{"id": "x6", "pipe_id": p.ID, "year": 1000, "day": 1}, "precedes"},
		{"far-future year", map[string]any{"id": "x7", "pipe_id": p.ID, "year": 20266, "day": 1}, "beyond acceptance horizon"},
		{"far-future renewal", map[string]any{"id": "x8", "type": "renewal", "pipe_id": p.ID, "year": 20266}, "beyond acceptance horizon"},
	}
	for _, tc := range cases {
		var apiErr map[string]string
		code := postJSON(t, ts.URL+"/api/events", tc.body, &apiErr)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, code)
		}
		if !strings.Contains(apiErr["error"], tc.frag) {
			t.Fatalf("%s: error %q missing %q", tc.name, apiErr["error"], tc.frag)
		}
	}
	if got := s.def.eventSeqNow(); got != 0 {
		t.Fatalf("invalid requests applied %d events", got)
	}
	// One invalid line poisons a whole NDJSON batch: nothing applies.
	nd := fmt.Sprintf("{\"id\":\"ok-1\",\"pipe_id\":%q,\"year\":%d,\"day\":1}\n{\"id\":\"bad\",\"pipe_id\":\"nope\",\"year\":%d,\"day\":1}\n", p.ID, year, year)
	resp, err := http.Post(ts.URL+"/api/events", "application/x-ndjson", strings.NewReader(nd))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed batch status %d, want 400", resp.StatusCode)
	}
	if got := s.def.eventSeqNow(); got != 0 {
		t.Fatalf("poisoned batch applied %d events", got)
	}
}

// TestEventsYearHorizonRatchets locks the upper bound on event years:
// max(ObservedTo, newest applied live year, wall-clock year) + slack.
// Without it one absurd year (a typo on the unauthenticated endpoint)
// would be durably logged and make every retrain allocate rows for
// thousands of years per pipe.
func TestEventsYearHorizonRatchets(t *testing.T) {
	s, ts := newEventServer(t, t.TempDir(), EventLogConfig{Sync: wal.SyncAlways})
	p := s.def.net.Pipes()[0]
	// The generated network's window ends well in the past, so the wall
	// clock dominates the initial horizon.
	horizon := time.Now().Year() + eventYearSlack
	var apiErr map[string]string
	body := map[string]any{"id": "h-reject", "pipe_id": p.ID, "year": horizon + 1, "day": 1}
	if code := postJSON(t, ts.URL+"/api/events", body, &apiErr); code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 one year past the horizon", code)
	}
	if !strings.Contains(apiErr["error"], "beyond acceptance horizon") {
		t.Fatalf("error %q should name the horizon", apiErr["error"])
	}
	// The horizon year itself is accepted — and acceptance ratchets the
	// horizon, so the previously rejected year becomes reportable.
	var resp eventsResponse
	if code := postJSON(t, ts.URL+"/api/events", map[string]any{"id": "h-1", "pipe_id": p.ID, "year": horizon, "day": 1}, &resp); code != http.StatusOK {
		t.Fatalf("horizon-year event rejected")
	}
	if code := postJSON(t, ts.URL+"/api/events", map[string]any{"id": "h-2", "pipe_id": p.ID, "year": horizon + 1, "day": 1}, &resp); code != http.StatusOK {
		t.Fatalf("ratcheted-year event rejected")
	}
	if got := s.def.eventSeqNow(); got != 2 {
		t.Fatalf("applied %d events, want 2", got)
	}
}

// TestEventsReplaySkipsPoisonedYears proves an already-poisoned log
// (a far-future record accepted before the horizon rule, or written by
// hand) recovers on boot: replay skips the out-of-horizon record
// instead of re-wedging every retrain forever.
func TestEventsReplaySkipsPoisonedYears(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newEventServer(t, dir, EventLogConfig{Sync: wal.SyncAlways})
	p := s1.def.net.Pipes()[0]
	if code := postJSON(t, ts1.URL+"/api/events", eventBody(s1.def, "ok-1"), nil); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	s1.BeginShutdown()
	ts1.Close()

	// Poison the log out-of-band: a well-framed record with an absurd
	// year, exactly what a pre-horizon server would have logged.
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways, MetricsName: "wal.test.poison"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	end, err := w.Append([]byte(fmt.Sprintf(`{"id":"poison-1","pipe_id":%q,"year":20266,"day":1,"mode":"BREAK"}`, p.ID)))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(end); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	before := obs.Default().Counter("serve.events.replay_rejected").Value()
	s2, _ := newEventServer(t, dir, EventLogConfig{Sync: wal.SyncAlways})
	if got := s2.def.eventSeqNow(); got != 1 {
		t.Fatalf("replayed seq %d, want 1 (poison record must be skipped)", got)
	}
	if got := obs.Default().Counter("serve.events.replay_rejected").Value(); got != before+1 {
		t.Fatalf("replay_rejected went %d -> %d, want exactly one skip", before, got)
	}
	if max := s2.def.maxEventYear(); max > time.Now().Year()+eventYearSlack {
		t.Fatalf("acceptance horizon %d still poisoned after replay", max)
	}
}

func TestEventsNDJSONRejectsUnknownFields(t *testing.T) {
	s, ts := newEventServer(t, t.TempDir(), EventLogConfig{Sync: wal.SyncAlways})
	p := s.def.net.Pipes()[0]
	// "regon" misspells "region": it must be a 400 like on the single-
	// object path, not a silently dropped key that routes the event to
	// the default shard.
	nd := fmt.Sprintf("{\"id\":\"u-1\",\"pipe_id\":%q,\"year\":%d,\"day\":1,\"regon\":\"B\"}\n", p.ID, s.def.net.ObservedTo+1)
	resp, err := http.Post(ts.URL+"/api/events", "application/x-ndjson", strings.NewReader(nd))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for an unknown field in a batch line", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "regon") {
		t.Fatalf("error %s should name the unknown field", body)
	}
	if got := s.def.eventSeqNow(); got != 0 {
		t.Fatalf("unknown-field batch applied %d events", got)
	}
}

// TestEventsBackpressureDrainRecovers: a 429 must kick a background
// drain. Under SyncNever the backlog otherwise only shrinks at segment
// rotation, and rotation needs appends — which backpressure refuses —
// so without the drain a segment budget >= the backlog budget wedges
// ingest in permanent 429 until restart.
func TestEventsBackpressureDrainRecovers(t *testing.T) {
	s, ts := newEventServer(t, t.TempDir(), EventLogConfig{Sync: wal.SyncNever, MaxBacklogBytes: 1})
	if code := postJSON(t, ts.URL+"/api/events", eventBody(s.def, "d-1"), nil); code != http.StatusOK {
		t.Fatalf("first status %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/events", eventBody(s.def, "d-2"), nil); code != http.StatusTooManyRequests {
		t.Fatalf("over-budget status %d, want 429", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.def.ingest.wal.BacklogBytes() > 1 {
		if time.Now().After(deadline) {
			t.Fatal("backpressure drain never cleared the backlog")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var resp eventsResponse
	if code := postJSON(t, ts.URL+"/api/events", eventBody(s.def, "d-3"), &resp); code != http.StatusOK || resp.Accepted != 1 {
		t.Fatalf("post-drain status %d resp %+v, want accepted", code, resp)
	}
}

func TestEventsRenewal(t *testing.T) {
	s, ts := newEventServer(t, t.TempDir(), EventLogConfig{Sync: wal.SyncAlways})
	p := s.def.net.Pipes()[0]
	body := map[string]any{"id": "r-1", "type": "renewal", "pipe_id": p.ID, "year": s.def.net.ObservedTo}
	var resp eventsResponse
	if code := postJSON(t, ts.URL+"/api/events", body, &resp); code != http.StatusOK || resp.Accepted != 1 {
		t.Fatalf("renewal rejected: code %d resp %+v", code, resp)
	}
	// The renewal reaches the live training network as a LaidYear reset.
	pipe, seq, err := s.def.trainPipeline()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 || pipe == s.def.pipe {
		t.Fatalf("trainPipeline seq %d (pipe extended: %v), want live pipeline at seq 1", seq, pipe != s.def.pipe)
	}
}

func TestEventsBackpressure429(t *testing.T) {
	s, ts := newEventServer(t, t.TempDir(), EventLogConfig{Sync: wal.SyncNever, MaxBacklogBytes: 1})
	// First request admits (backlog 0), and under SyncNever its bytes
	// stay unsynced — the second request must hit the budget.
	var resp eventsResponse
	if code := postJSON(t, ts.URL+"/api/events", eventBody(s.def, "bp-1"), &resp); code != http.StatusOK {
		t.Fatalf("first status %d", code)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/api/events", strings.NewReader(`{"id":"bp-2","pipe_id":"`+s.def.net.Pipes()[0].ID+`","year":`+fmt.Sprint(s.def.net.ObservedTo+1)+`,"day":1}`))
	req.Header.Set("Content-Type", "application/json")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 under backlog", r2.StatusCode)
	}
	if r2.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
}

func TestEventsReplayOnBoot(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newEventServer(t, dir, EventLogConfig{Sync: wal.SyncAlways})
	p := s1.def.net.Pipes()[0]
	year := s1.def.net.ObservedTo + 1
	for i := 0; i < 4; i++ {
		var resp eventsResponse
		body := map[string]any{"id": fmt.Sprintf("rp-%d", i), "pipe_id": p.ID, "year": year, "day": i + 1}
		if code := postJSON(t, ts1.URL+"/api/events", body, &resp); code != http.StatusOK {
			t.Fatalf("post %d status %d", i, code)
		}
	}
	s1.BeginShutdown() // seals the WAL
	ts1.Close()

	// A fresh server over the same directory replays all four and dedups
	// retries of them.
	s2, ts2 := newEventServer(t, dir, EventLogConfig{Sync: wal.SyncAlways})
	if got := s2.def.eventSeqNow(); got != 4 {
		t.Fatalf("replayed seq %d, want 4", got)
	}
	var resp eventsResponse
	body := map[string]any{"id": "rp-2", "pipe_id": p.ID, "year": year, "day": 3}
	if code := postJSON(t, ts2.URL+"/api/events", body, &resp); code != http.StatusOK {
		t.Fatalf("retry status %d", code)
	}
	if resp.Accepted != 0 || resp.Duplicates != 1 || resp.LiveEvents != 4 {
		t.Fatalf("post-replay retry %+v, want pure duplicate", resp)
	}
}

func TestEventsMarkModelsStaleAndDriftGauges(t *testing.T) {
	s, ts := newEventServer(t, t.TempDir(), EventLogConfig{Sync: wal.SyncAlways})
	def := string(s.defaultModel)
	// Train the default model on the base window.
	if code := postJSON(t, ts.URL+"/api/models/"+def+"/train", nil, nil); code != http.StatusOK {
		t.Fatalf("train status %d", code)
	}
	tm0 := (*s.def.models.Load())[def]
	if tm0.eventSeq != 0 {
		t.Fatalf("base snapshot eventSeq %d, want 0", tm0.eventSeq)
	}

	// Ingest a failure: the snapshot is now stale for the scheduler.
	var resp eventsResponse
	if code := postJSON(t, ts.URL+"/api/events", eventBody(s.def, "drift-1"), &resp); code != http.StatusOK {
		t.Fatalf("event status %d", code)
	}
	if tm0.eventSeq >= s.def.eventSeqNow() {
		t.Fatal("ingest did not advance the staleness seq")
	}
	reg := obs.Default()
	if got := reg.Gauge("serve.shard.a.live_events").Value(); got != 1 {
		t.Fatalf("live_events gauge %v, want 1", got)
	}
	if got := reg.Gauge("serve.shard.a.window_events").Value(); got != 1 {
		t.Fatalf("window_events gauge %v, want 1", got)
	}
	// One failed pipe among many gives a well-defined live-window AUC.
	if got := reg.Gauge("serve.shard.a.drift.live_auc").Value(); got < 0 || got > 1 {
		t.Fatalf("drift.live_auc gauge %v, want [0,1]", got)
	}
	if got := reg.Gauge("serve.shard.a.drift.train_auc").Value(); got <= 0 || got > 1 {
		t.Fatalf("drift.train_auc gauge %v, want (0,1]", got)
	}

	// A rebuild retrains on the event-extended window and stamps the seq.
	s.rebuild(s.def, def)
	tm1 := (*s.def.models.Load())[def]
	if tm1.eventSeq != 1 {
		t.Fatalf("rebuilt snapshot eventSeq %d, want 1", tm1.eventSeq)
	}
	if tm1 == tm0 {
		t.Fatal("rebuild did not republish")
	}
}

// TestEventsRepublishRotatesCachedResponses is the regression test for
// the stale-response-cache bug: ranking/plan cache keys include the
// published snapshot's content ETag, so a live-event retrain that
// changes the ranking must rotate what /ranking serves — the old cached
// body becomes unreachable the moment the new snapshot lands, instead
// of being replayed until LRU eviction.
func TestEventsRepublishRotatesCachedResponses(t *testing.T) {
	s, ts := newEventServer(t, t.TempDir(), EventLogConfig{Sync: wal.SyncAlways})
	def := string(s.defaultModel)
	if code := postJSON(t, ts.URL+"/api/models/"+def+"/train", nil, nil); code != http.StatusOK {
		t.Fatalf("train status %d", code)
	}
	url := ts.URL + "/api/models/" + def + "/ranking?top=5"
	before := fetchRankingETag(t, url) // warms the response cache
	if again := fetchRankingETag(t, url); again != before {
		t.Fatalf("cached replay changed ETag %s -> %s", before, again)
	}

	var resp eventsResponse
	if code := postJSON(t, ts.URL+"/api/events", eventBody(s.def, "cache-rotate-1"), &resp); code != http.StatusOK {
		t.Fatalf("event status %d", code)
	}
	s.rebuild(s.def, def)
	tm := (*s.def.models.Load())[def]

	after := fetchRankingETag(t, url)
	if after != tm.etag {
		t.Fatalf("post-republish ranking ETag %s, want published snapshot's %s (stale cache entry replayed)", after, tm.etag)
	}
	if after == before {
		t.Fatalf("retrain on the event-extended window left the ranking ETag unchanged (%s)", before)
	}
}

func TestEventsMultiShardRouting(t *testing.T) {
	sA, err := pipefail.GenerateRegion("A", 5, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	sB, err := pipefail.GenerateRegion("B", 6, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewMulti([]*pipefail.Network{sA, sB}, log.New(io.Discard, "", 0), pipefail.WithESGenerations(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetEventLog(EventLogConfig{Dir: t.TempDir(), Sync: wal.SyncAlways}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.BeginShutdown)

	shB := s.byRegion["B"]
	body := eventBody(shB, "m-1")
	body["region"] = "B"
	var resp eventsResponse
	if code := postJSON(t, ts.URL+"/api/events", body, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if s.byRegion["A"].eventSeqNow() != 0 || shB.eventSeqNow() != 1 {
		t.Fatalf("event routed to wrong shard: A=%d B=%d", s.byRegion["A"].eventSeqNow(), shB.eventSeqNow())
	}
	body["region"] = "Z"
	body["id"] = "m-2"
	if code := postJSON(t, ts.URL+"/api/events", body, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown region status %d, want 400", code)
	}
}

func TestEventsClosedLog503(t *testing.T) {
	s, ts := newEventServer(t, t.TempDir(), EventLogConfig{Sync: wal.SyncAlways})
	s.def.ingest.wal.Close()
	code := postJSON(t, ts.URL+"/api/events", eventBody(s.def, "c-1"), nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 on closed log", code)
	}
	if got := s.def.eventSeqNow(); got != 0 {
		t.Fatalf("closed log applied %d events", got)
	}
}
