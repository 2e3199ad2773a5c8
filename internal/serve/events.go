package serve

// Streaming ingest: POST /api/events accepts live failure reports and
// registry renewals, makes them durable through a per-shard write-ahead
// log (internal/wal) before acknowledging, and folds them into rolling
// per-shard overlays that the rebuild scheduler retrains from.
//
// Durability contract: an event is acknowledged (counted in "accepted")
// only after its WAL frame is fsynced under the configured policy. A
// crash between fsync and acknowledgment leaves the event on disk with
// the client unaware — the client retries, and the event-ID dedup set
// (rebuilt from the log on every boot) absorbs the duplicate, so every
// acknowledged event is applied exactly once across any crash schedule.
//
// Determinism: a retrain extends the shard's base columns with the
// applied events (Columns.ExtendLive) and rebuilds the feature sets. The
// builder only counts each pipe's failures per year and renewals take the
// max year per pipe, so the retrained model depends on the *set* of
// applied events, not their arrival order — a crash-recovered replay
// retrains to a bit-identical snapshot ETag as a no-crash run over the
// same acknowledged events.
//
// Drift: each shard tracks a rolling temporal window (window_days wide,
// anchored at the newest live event) and exports gauges comparing the
// default model's train-time AUC with its AUC against the live window's
// labels — the operator signal that the serving model has gone stale.
// Applying an event updates the window in amortized O(log window) time;
// the AUC pair is computed off the request path, when GET /metrics is
// scraped, and only when the event seq or the default snapshot moved.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/wal"
)

// maxEventBody bounds one /api/events request body.
const maxEventBody = 4 << 20

// defaultWindowDays is the rolling drift window when the config leaves
// WindowDays zero: one calendar year, matching the paper's test-year
// granularity.
const defaultWindowDays = 366

// EventLogConfig wires streaming ingest into a Server. Dir is the WAL
// root (per-region subdirectories when multiple shards exist, mirroring
// the state-dir layout). MaxBacklogBytes bounds the appended-but-unsynced
// backlog before ingest answers 429 (0 = 16 MiB). WindowDays sets the
// rolling drift window (0 = one year).
type EventLogConfig struct {
	Dir             string
	Sync            wal.SyncPolicy
	SyncInterval    time.Duration
	SegmentBytes    int64
	MaxBacklogBytes int64
	WindowDays      int
}

// ingestState is one shard's streaming-ingest state. The WAL is
// internally synchronized; mu orders append→durable→apply sequences so
// the in-memory overlays always reflect a prefix of the log.
type ingestState struct {
	mu  sync.Mutex
	wal *wal.WAL

	// seen is the event-ID dedup set, rebuilt from the log on boot.
	seen map[string]struct{}
	// failures/renewals are the live overlays ExtendLive folds into the
	// training region. Append-only under mu.
	failures []dataset.Failure
	renewals []pipefail.Renewal

	// seq counts applied events; snapshots record the seq they trained
	// at, and the scheduler treats seq advancement as staleness.
	seq atomic.Int64

	// maxBacklog is the 429 admission bound on wal.BacklogBytes().
	maxBacklog int64

	// drainPending collapses backpressure-triggered background Syncs to
	// at most one in flight.
	drainPending atomic.Bool

	// windowDays and maxDayIdx define the rolling drift window:
	// (maxDayIdx-windowDays, maxDayIdx] in year*366+day space. window
	// holds the in-window failures as a min-heap on day index, inWindow
	// counts them per registry row, and applyLocked keeps both current,
	// popping failures as the window's start passes them. Guarded by mu.
	windowDays int
	maxDayIdx  int
	window     windowHeap
	inWindow   []int32

	// driftSeq and driftSnap are the event seq and default snapshot the
	// drift AUC pair was last computed at (see refreshDrift).
	driftMu   sync.Mutex
	driftSeq  int64
	driftSnap *modelSnapshot

	// livePipe memoizes the extended pipeline built at livePipeSeq, so
	// rebuilds of several models at one seq extend the region once, not
	// per model.
	pipeMu      sync.Mutex
	livePipe    *pipefail.Pipeline
	livePipeSeq int64

	// Drift gauges (serve.shard.<region>.drift.*, .window_events,
	// .live_events).
	gLiveAUC, gTrainAUC, gDriftSeq, gWindowEvents, gLiveEvents *obs.Gauge
}

// windowEntry is one in-window failure: its year*366+day index and the
// pipe's registry row.
type windowEntry struct {
	idx, row int
}

// windowHeap is a binary min-heap of windowEntry on idx. It is hand
// rolled rather than container/heap, whose any-typed Push and Pop would
// allocate once per applied failure.
type windowHeap []windowEntry

func (h *windowHeap) push(e windowEntry) {
	w := append(*h, e)
	for i := len(w) - 1; i > 0; {
		p := (i - 1) / 2
		if w[p].idx <= w[i].idx {
			break
		}
		w[p], w[i] = w[i], w[p]
		i = p
	}
	*h = w
}

// pop removes and returns the entry with the smallest idx.
func (h *windowHeap) pop() windowEntry {
	w := *h
	top, n := w[0], len(w)-1
	w[0], w[n] = w[n], windowEntry{}
	w = w[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && w[c+1].idx < w[c].idx {
			c++
		}
		if w[i].idx <= w[c].idx {
			break
		}
		w[i], w[c] = w[c], w[i]
		i = c
	}
	*h = w
	return top
}

// SetEventLog opens (and replays) the write-ahead event logs and enables
// POST /api/events. Call before SetStateDir — restored models must rank
// against the live (event-extended) pipeline to reproduce the ETags a
// retrain would — and before serving traffic. Replayed events rebuild
// the dedup set and overlays; records rejected by validation (a schema
// drift since they were logged) are counted and skipped, never fatal.
func (s *Server) SetEventLog(cfg EventLogConfig) error {
	if cfg.Dir == "" {
		return nil
	}
	if cfg.MaxBacklogBytes <= 0 {
		cfg.MaxBacklogBytes = 16 << 20
	}
	if cfg.WindowDays <= 0 {
		cfg.WindowDays = defaultWindowDays
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("serve: event log dir: %w", err)
	}
	reg := obs.Default()
	for _, sh := range s.shards {
		token := obs.SanitizeMetricName(sh.region)
		dir, walName := cfg.Dir, "serve.wal"
		if len(s.shards) > 1 {
			dir, walName = filepath.Join(cfg.Dir, token), "serve.wal."+token
		}
		ing := &ingestState{
			seen:          make(map[string]struct{}),
			maxBacklog:    cfg.MaxBacklogBytes,
			windowDays:    cfg.WindowDays,
			inWindow:      make([]int32, sh.data.NumPipes()),
			gLiveAUC:      reg.Gauge("serve.shard." + token + ".drift.live_auc"),
			gTrainAUC:     reg.Gauge("serve.shard." + token + ".drift.train_auc"),
			gDriftSeq:     reg.Gauge("serve.shard." + token + ".drift.seq"),
			gWindowEvents: reg.Gauge("serve.shard." + token + ".window_events"),
			gLiveEvents:   reg.Gauge("serve.shard." + token + ".live_events"),
		}
		// Wire the shard before replay: checkEvent's year-horizon ratchet
		// reads sh.ingest, so replayed events must see the same bound
		// growth they produced when accepted live.
		sh.ingest = ing
		w, err := wal.Open(dir, wal.Options{
			SegmentBytes: cfg.SegmentBytes,
			Sync:         cfg.Sync,
			Interval:     cfg.SyncInterval,
			MetricsName:  walName,
		}, func(payload []byte) error {
			var ev walEvent
			if err := json.Unmarshal(payload, &ev); err != nil {
				s.metrics.eventsReplayRejected.Inc()
				s.log.Printf("serve: event log %s: skipping undecodable record: %v", sh.region, err)
				return nil
			}
			if err := sh.checkEvent(&ev); err != nil {
				s.metrics.eventsReplayRejected.Inc()
				s.log.Printf("serve: event log %s: skipping invalid record %q: %v", sh.region, ev.ID, err)
				return nil
			}
			if _, dup := ing.seen[ev.ID]; dup {
				return nil
			}
			ing.applyLocked(&ev)
			return nil
		})
		if err != nil {
			sh.ingest = nil // never leave a shard pointing at a nil WAL
			return err
		}
		ing.wal = w
		ing.setCountGauges()
		if n := ing.seq.Load(); n > 0 {
			s.log.Printf("serve: region %s: replayed %d live events from %s", sh.region, n, dir)
		}
	}
	s.eventsOn = true
	return nil
}

// closeEventLogs seals every shard's WAL; called from BeginShutdown
// after draining flips, so no new appends race the close (a straggler
// gets ErrClosed → 503, never a lost ack).
func (s *Server) closeEventLogs() {
	for _, sh := range s.shards {
		if sh.ingest != nil {
			if err := sh.ingest.wal.Close(); err != nil {
				s.log.Printf("serve: close event log %s: %v", sh.region, err)
			}
		}
	}
}

// walEvent is one ingested event, also the WAL record schema (canonical
// JSON of the normalized struct). Type is "failure" (default) or
// "renewal". ID is the client-chosen idempotency key.
type walEvent struct {
	ID      string `json:"id"`
	Region  string `json:"region,omitempty"`
	Type    string `json:"type,omitempty"`
	PipeID  string `json:"pipe_id"`
	Segment int    `json:"segment,omitempty"`
	Year    int    `json:"year"`
	Day     int    `json:"day,omitempty"`
	Mode    string `json:"mode,omitempty"`
	row     int    // PipeID's registry row, set by checkEvent; not logged
}

// normalize fills schema defaults in place so the logged record is
// canonical: replay and live application see identical values.
func (ev *walEvent) normalize() {
	if ev.Type == "" {
		ev.Type = "failure"
	}
	if ev.Type == "failure" {
		if ev.Day == 0 {
			ev.Day = 1
		}
		if ev.Mode == "" {
			ev.Mode = string(dataset.ModeBreak)
		}
	}
}

// eventYearSlack is how far past the newest evidence a reported event
// year may reach. Years must be bounded above: Columns.ExtendLive moves
// ObservedTo to the newest failure year and feature.Builder.TrainSet
// allocates rows for pipes × every year in the window, so one absurd
// year (a typo like 20266 on an unauthenticated endpoint) would make
// every subsequent retrain allocate thousands of years of rows per pipe
// — and the poison record, durably logged, would replay on every boot.
// The bound ratchets with applied events, so a live deployment keeps
// reporting into the future one year at a time.
const eventYearSlack = 1

// maxEventYear is the inclusive upper bound on a reported event year:
// the newest year the shard has evidence for — observation window end,
// applied live events, or the wall clock — plus eventYearSlack. It only
// ever grows, so an event accepted live is also accepted on replay.
func (sh *shard) maxEventYear() int {
	max := sh.data.ObservedTo
	if y := time.Now().Year(); y > max {
		max = y
	}
	if ing := sh.ingest; ing != nil {
		ing.mu.Lock()
		if y := (ing.maxDayIdx - 1) / 366; y > max {
			max = y
		}
		ing.mu.Unlock()
	}
	return max + eventYearSlack
}

// checkEvent validates one normalized event against the shard's
// registry; the returned error is client-visible (400).
func (sh *shard) checkEvent(ev *walEvent) error {
	ev.normalize()
	if ev.ID == "" {
		return errors.New("missing event id")
	}
	if len(ev.ID) > 128 {
		return fmt.Errorf("event id longer than 128 bytes")
	}
	row, ok := sh.data.RowOf(ev.PipeID)
	if !ok {
		return fmt.Errorf("unknown pipe %q", ev.PipeID)
	}
	ev.row = row
	laid, segments := int(sh.data.Registry.LaidYear[row]), int(sh.data.Registry.Segments[row])
	switch ev.Type {
	case "failure":
		if ev.Year < sh.data.ObservedFrom {
			return fmt.Errorf("failure year %d precedes observation window start %d", ev.Year, sh.data.ObservedFrom)
		}
		if ev.Year < laid {
			return fmt.Errorf("failure year %d precedes pipe %s laid year %d", ev.Year, ev.PipeID, laid)
		}
		if max := sh.maxEventYear(); ev.Year > max {
			return fmt.Errorf("failure year %d beyond acceptance horizon %d", ev.Year, max)
		}
		if ev.Day < 1 || ev.Day > 366 {
			return fmt.Errorf("day %d out of range [1,366]", ev.Day)
		}
		if ev.Segment < 0 || ev.Segment >= segments {
			return fmt.Errorf("segment %d out of range [0,%d) for pipe %s", ev.Segment, segments, ev.PipeID)
		}
		switch dataset.FailureMode(ev.Mode) {
		case dataset.ModeBreak, dataset.ModeLeak, dataset.ModeBlockage:
		default:
			return fmt.Errorf("unknown failure mode %q", ev.Mode)
		}
	case "renewal":
		if ev.Year <= 0 {
			return fmt.Errorf("renewal needs a positive year, got %d", ev.Year)
		}
		if max := sh.maxEventYear(); ev.Year > max {
			return fmt.Errorf("renewal year %d beyond acceptance horizon %d", ev.Year, max)
		}
	default:
		return fmt.Errorf("unknown event type %q", ev.Type)
	}
	return nil
}

// applyLocked folds one checked, deduplicated event into the overlays.
// Callers hold ing.mu (or have exclusive access during replay).
func (ing *ingestState) applyLocked(ev *walEvent) {
	ing.seen[ev.ID] = struct{}{}
	switch ev.Type {
	case "failure":
		ing.failures = append(ing.failures, dataset.Failure{
			PipeID:  ev.PipeID,
			Segment: ev.Segment,
			Year:    ev.Year,
			Day:     ev.Day,
			Mode:    dataset.FailureMode(ev.Mode),
		})
		ing.advanceWindow(ev.Year*366+ev.Day, ev.row)
	case "renewal":
		ing.renewals = append(ing.renewals, pipefail.Renewal{PipeID: ev.PipeID, Year: ev.Year})
	}
	ing.seq.Add(1)
	ing.setCountGauges()
}

// advanceWindow adds one failure at day index idx to the drift window,
// moving the window's end forward when idx is the newest yet, and pops
// every failure the window's start has passed. A failure that is
// already older than the window never enters it; the start only moves
// forward, so it never could. Callers hold ing.mu.
func (ing *ingestState) advanceWindow(idx, row int) {
	if idx > ing.maxDayIdx {
		ing.maxDayIdx = idx
	}
	cutoff := ing.maxDayIdx - ing.windowDays
	if idx > cutoff {
		ing.window.push(windowEntry{idx, row})
		ing.inWindow[row]++
	}
	for len(ing.window) > 0 && ing.window[0].idx <= cutoff {
		ing.inWindow[ing.window.pop().row]--
	}
}

// setCountGauges publishes the applied-event and in-window failure
// counts. Callers hold ing.mu (or have exclusive access during replay).
func (ing *ingestState) setCountGauges() {
	ing.gLiveEvents.Set(float64(ing.seq.Load()))
	ing.gWindowEvents.Set(float64(len(ing.window)))
}

// eventSeqNow returns how many live events this shard has applied; 0
// when ingest is not wired. The scheduler compares it against each
// snapshot's eventSeq to decide staleness.
func (sh *shard) eventSeqNow() int64 {
	if sh.ingest == nil {
		return 0
	}
	return sh.ingest.seq.Load()
}

// trainPipeline returns the pipeline training should run against — the
// base pipeline when no live events exist, otherwise one rebuilt over
// the event-extended region — plus the event seq it reflects. The
// extended pipeline is memoized per seq so rebuilds of several models
// at one seq extend the region once, not once per model.
func (sh *shard) trainPipeline() (*pipefail.Pipeline, int64, error) {
	ing := sh.ingest
	if ing == nil {
		return sh.pipe, 0, nil
	}
	seq := ing.seq.Load()
	if seq == 0 {
		return sh.pipe, 0, nil
	}
	ing.pipeMu.Lock()
	defer ing.pipeMu.Unlock()
	// Re-read under the build lock: this pins the (pipeline, seq) pair.
	ing.mu.Lock()
	seq = ing.seq.Load()
	failures := ing.failures[:len(ing.failures):len(ing.failures)]
	renewals := ing.renewals[:len(ing.renewals):len(ing.renewals)]
	ing.mu.Unlock()
	if ing.livePipe != nil && ing.livePipeSeq == seq {
		return ing.livePipe, seq, nil
	}
	// Let the superseded pipeline go before building its successor, so
	// the memo never pins two at once.
	ing.livePipe = nil
	p, err := pipefail.NewPipelineData(sh.data.ExtendLive(failures, renewals), sh.opts...)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: region %q: extend pipeline at seq %d: %w", sh.region, seq, err)
	}
	ing.livePipe, ing.livePipeSeq = p, seq
	return p, seq, nil
}

// refreshDrift recomputes the shard's live-vs-train AUC gauges for the
// default model, whose slot is def, and stamps drift.seq with the event
// seq they reflect, when the event seq or the published default snapshot
// moved since the last computation.
// The pair is left as it was while the default model is unpublished or
// the live window is degenerate (no failed or no intact pipe — AUC is
// undefined then, and a NaN gauge would be worse than a stale one).
func (ing *ingestState) refreshDrift(def *modelSlot) {
	ing.driftMu.Lock()
	defer ing.driftMu.Unlock()
	tm := def.snap.Load()
	ing.mu.Lock()
	seq := ing.seq.Load()
	if tm == nil || (tm == ing.driftSnap && seq == ing.driftSeq) {
		ing.mu.Unlock()
		return
	}
	ing.driftSnap, ing.driftSeq = tm, seq
	if len(ing.window) == 0 {
		ing.mu.Unlock()
		return
	}
	labels := make([]bool, len(tm.ranking.Rows))
	pos := 0
	for i, row := range tm.ranking.Rows {
		if ing.inWindow[row] > 0 {
			labels[i] = true
			pos++
		}
	}
	ing.mu.Unlock()
	if pos == 0 || pos == len(labels) {
		return
	}
	ing.gLiveAUC.Set(eval.AUC(tm.ranking.Scores, labels))
	ing.gTrainAUC.Set(tm.auc)
	ing.gDriftSeq.Set(float64(seq))
}

// eventsResponse is the POST /api/events success body.
type eventsResponse struct {
	Accepted   int   `json:"accepted"`
	Duplicates int   `json:"duplicates"`
	LiveEvents int64 `json:"live_events"`
}

// handleEvents ingests one event (JSON object) or a batch (NDJSON, one
// event per line, Content-Type application/x-ndjson). The object, and
// each line, holds exactly one JSON value. All events are validated
// before anything is logged — a 400 applies nothing, nor does the 413
// for a body over maxEventBody. Events route to the shard named by their
// "region" field (default shard when absent). 429 + Retry-After signals
// WAL backpressure; 503 means the log is unconfigured, closed, or failed
// to make the batch durable.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if !s.eventsOn {
		s.writeErr(w, http.StatusServiceUnavailable, "event log not configured (start with -wal-dir)")
		return
	}
	events, err := decodeEvents(r)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) || errors.Is(err, bufio.ErrTooLong) {
			s.writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxEventBody)
			return
		}
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(events) == 0 {
		s.writeErr(w, http.StatusBadRequest, "no events in request")
		return
	}
	// Resolve and validate everything before logging anything: a batch
	// is all-or-nothing at the validation stage.
	byShard := make(map[*shard][]*walEvent)
	order := make([]*shard, 0, 1)
	for i := range events {
		ev := &events[i]
		sh, err := s.shardNamed(ev.Region, s.def)
		if err != nil {
			s.metrics.eventsRejected.Inc()
			s.writeErr(w, http.StatusBadRequest, "event %d: %v", i, err)
			return
		}
		if err := sh.checkEvent(ev); err != nil {
			s.metrics.eventsRejected.Inc()
			s.writeErr(w, http.StatusBadRequest, "event %d (%s): %v", i, ev.ID, err)
			return
		}
		if len(byShard[sh]) == 0 {
			order = append(order, sh)
		}
		byShard[sh] = append(byShard[sh], ev)
	}
	// Admission control before any append: a backlogged WAL refuses the
	// whole batch so the client backs off instead of queueing unsynced
	// bytes without bound.
	for _, sh := range order {
		if b := sh.ingest.wal.BacklogBytes(); b > sh.ingest.maxBacklog {
			// Kick one background drain before refusing: under
			// -wal-sync=never the backlog otherwise only shrinks at
			// segment rotation, and rotation needs appends — which
			// backpressure is now refusing. Without the drain, a segment
			// budget at or above the backlog budget would wedge ingest in
			// permanent 429 until restart.
			ing := sh.ingest
			if ing.drainPending.CompareAndSwap(false, true) {
				go func() {
					defer ing.drainPending.Store(false)
					_ = ing.wal.Sync()
				}()
			}
			s.metrics.eventsBackpressure.Inc()
			w.Header()["Retry-After"] = retryAfter1s
			s.writeErr(w, http.StatusTooManyRequests,
				"event log backlog %d bytes over budget %d; retry later", b, ing.maxBacklog)
			return
		}
	}

	var resp eventsResponse
	for _, sh := range order {
		accepted, dups, err := sh.ingestBatch(byShard[sh])
		if err != nil {
			s.metrics.eventsFailed.Inc()
			w.Header()["Retry-After"] = retryAfter1s
			s.writeErr(w, http.StatusServiceUnavailable, "event log append: %v", err)
			return
		}
		s.metrics.eventsAccepted.Add(int64(accepted))
		s.metrics.eventsDuplicates.Add(int64(dups))
		resp.Accepted += accepted
		resp.Duplicates += dups
		resp.LiveEvents = sh.eventSeqNow()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// ingestBatch logs and applies one shard's slice of a batch: dedup →
// append frames → wait durable → apply. Nothing is applied (and nothing
// acknowledged) unless the whole slice is durable; a failure after
// append leaves unacknowledged frames in the log, which replay will
// apply and the client's retry will dedup — exactly-once either way.
func (sh *shard) ingestBatch(events []*walEvent) (accepted, dups int, err error) {
	ing := sh.ingest
	ing.mu.Lock()
	defer ing.mu.Unlock()
	var fresh []*walEvent
	var end int64
	// seen only grows at apply time, so a batch-local set catches an ID
	// repeated within this request (otherwise it would log and apply
	// twice).
	inBatch := make(map[string]struct{}, len(events))
	for _, ev := range events {
		if _, dup := ing.seen[ev.ID]; dup {
			dups++
			continue
		}
		if _, dup := inBatch[ev.ID]; dup {
			dups++
			continue
		}
		inBatch[ev.ID] = struct{}{}
		payload, merr := json.Marshal(ev)
		if merr != nil {
			return 0, 0, merr
		}
		if end, err = ing.wal.Append(payload); err != nil {
			return 0, 0, err
		}
		fresh = append(fresh, ev)
	}
	if len(fresh) == 0 {
		return 0, dups, nil
	}
	if err := ing.wal.WaitDurable(end); err != nil {
		return 0, 0, err
	}
	for _, ev := range fresh {
		ing.applyLocked(ev)
	}
	return len(fresh), dups, nil
}

// decodeEvents parses the request body: NDJSON batch when the declared
// Content-Type is application/x-ndjson, a single JSON object otherwise.
func decodeEvents(r *http.Request) ([]walEvent, error) {
	body := http.MaxBytesReader(nil, r.Body, maxEventBody)
	defer body.Close()
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	if strings.TrimSpace(ct) == "application/x-ndjson" {
		var events []walEvent
		sc := bufio.NewScanner(body)
		sc.Buffer(make([]byte, 64<<10), maxEventBody)
		line := 0
		for sc.Scan() {
			line++
			text := bytes.TrimSpace(sc.Bytes())
			if len(text) == 0 {
				continue
			}
			// Same strict schema as the single-object path: a misspelled
			// field must be a 400, not a silently ignored key that routes
			// the event to default values.
			var ev walEvent
			dec := json.NewDecoder(bytes.NewReader(text))
			dec.DisallowUnknownFields()
			if err := decodeOne(dec, &ev); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			events = append(events, ev)
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("reading body: %w", err)
		}
		return events, nil
	}
	var ev walEvent
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := decodeOne(dec, &ev); err != nil {
		return nil, fmt.Errorf("decoding event: %w", err)
	}
	return []walEvent{ev}, nil
}
