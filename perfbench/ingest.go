package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/wal"
)

// ingest-fresh: one region with the event log on (fsync before every
// ack) and a short rebuild interval. Events arrive open-loop in bursts
// with quiet gaps between them, a fixed-rate reader polls the cached
// rankings, and a probe times each renewal from its ack until a
// published snapshot reflects it.
const (
	ingestRegion  = "A"
	ingestScale   = 0.3 // a DirectAUC-ES retrain takes about a second
	ingestSetups  = 3
	ingestRebuild = 200 * time.Millisecond
	ingestBursts  = 4
	burstShare    = 0.5   // share of each burst cycle that carries events
	eventRate     = 100.0 // single-event POSTs per second inside a burst
	batchEvery    = 500 * time.Millisecond
	batchSize     = 100
	readerRate    = 100.0 // cached-ranking reads per second, all run long
	probeTick     = 20 * time.Millisecond
	drainTimeout  = 30 * time.Second
	readerTop     = 50
)

var ingestModels = []string{"DirectAUC-ES", "Heuristic-Age"}

// event is one live event as the server's /api/events schema takes it.
type event struct {
	ID      string `json:"id"`
	Type    string `json:"type"`
	PipeID  string `json:"pipe_id"`
	Year    int    `json:"year"`
	Day     int    `json:"day,omitempty"`
	Segment int    `json:"segment,omitempty"`
	Mode    string `json:"mode,omitempty"`
}

func (e event) failure() pipefail.Failure {
	return pipefail.Failure{PipeID: e.PipeID, Segment: e.Segment, Year: e.Year, Day: e.Day, Mode: dataset.FailureMode(e.Mode)}
}

// ingestPlan is the drawn event schedule: ops[i] carries events[i].
type ingestPlan struct {
	ops    []op
	events [][]event
}

// drawIngest draws the bursty event schedule over window from rng.
// Renewals go to distinct pipes old enough that a renewal to
// testYear-1 changes their age; failures land in testYear-1, inside the
// training window, so they change what the learned model fits.
func drawIngest(rng *rand.Rand, window time.Duration, net *pipefail.Network, seed int64) ingestPlan {
	testYear := net.ObservedTo
	var renewable, all []string
	for _, p := range net.Pipes() {
		if p.LaidYear < testYear-1 {
			renewable = append(renewable, p.ID)
		}
		if p.LaidYear <= testYear-1 {
			all = append(all, p.ID)
		}
	}
	rng.Shuffle(len(renewable), func(i, j int) { renewable[i], renewable[j] = renewable[j], renewable[i] })
	var plan ingestPlan
	n := 0
	newEvent := func(renewal bool) event {
		n++
		id := fmt.Sprintf("s%d-e%d", seed, n)
		if renewal && len(renewable) > 0 {
			p := renewable[0]
			renewable = renewable[1:]
			return event{ID: id, Type: "renewal", PipeID: p, Year: testYear - 1}
		}
		return event{ID: id, Type: "failure", PipeID: all[rng.Intn(len(all))], Year: testYear - 1,
			Day: 1 + rng.Intn(365), Mode: string(dataset.ModeBreak)}
	}
	type timed struct {
		at  time.Duration
		evs []event
	}
	var items []timed
	cycle := window / ingestBursts
	for b := 0; b < ingestBursts; b++ {
		from := time.Duration(b) * cycle
		to := from + time.Duration(float64(cycle)*burstShare)
		for _, at := range poissonTimes(rng, eventRate, from, to) {
			items = append(items, timed{at, []event{newEvent(rng.Intn(2) == 0)}})
		}
		for at := from + batchEvery/2; at < to; at += batchEvery {
			evs := make([]event, batchSize)
			for i := range evs {
				evs[i] = newEvent(false)
			}
			items = append(items, timed{at, evs})
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].at < items[j].at })
	for _, it := range items {
		o := op{at: it.at, route: "events", method: http.MethodPost, path: "/api/events"}
		if len(it.evs) == 1 {
			o.body, _ = json.Marshal(it.evs[0])
			o.ctype = "application/json"
		} else {
			var sb strings.Builder
			for _, e := range it.evs {
				line, _ := json.Marshal(e)
				sb.Write(line)
				sb.WriteByte('\n')
			}
			o.body = []byte(sb.String())
			o.ctype = "application/x-ndjson"
		}
		plan.ops = append(plan.ops, o)
		plan.events = append(plan.events, it.evs)
	}
	return plan
}

// renewalAck is one acknowledged renewal waiting to be seen fresh.
type renewalAck struct {
	pipe  string
	acked time.Duration
	base  float64 // Heuristic-Age score before the renewal
	fresh time.Duration
	seen  bool
}

// freshness tracks acknowledged renewals. Events travel on one
// connection, so acks arrive in log order, and a published snapshot
// reflects a prefix of the log: once the oldest pending renewal is
// visible, the probe moves on to the next.
type freshness struct {
	mu      sync.Mutex
	acks    []*renewalAck
	pending int // index of the oldest renewal not yet seen fresh
}

func (f *freshness) add(a *renewalAck) {
	f.mu.Lock()
	f.acks = append(f.acks, a)
	f.mu.Unlock()
}

func (f *freshness) next() *renewalAck {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pending < len(f.acks) {
		return f.acks[f.pending]
	}
	return nil
}

func (f *freshness) markFresh(at time.Duration) {
	f.mu.Lock()
	a := f.acks[f.pending]
	a.seen, a.fresh = true, at-a.acked
	f.pending++
	f.mu.Unlock()
}

// probe polls the oldest pending renewal's pipe until its Heuristic-Age
// score moves. That score depends only on the pipe's own age, so a
// change proves the renewal is in a published snapshot; a learned
// model's retrain moves every score and proves nothing. It returns when
// ctx ends and nothing is pending, or at the drain deadline.
func probe(ctx context.Context, c *http.Client, base string, f *freshness, start time.Time, deadline <-chan time.Time, problems func(string, ...any)) {
	tick := time.NewTicker(probeTick)
	defer tick.Stop()
	for {
		for a := f.next(); a != nil; a = f.next() {
			var resp struct {
				Scores map[string]float64 `json:"scores"`
			}
			if _, _, err := callOK(c, http.MethodGet, base+"/api/pipes/"+a.pipe, nil, &resp); err != nil {
				problems("probe %s: %v", a.pipe, err)
				break
			}
			s, ok := resp.Scores["Heuristic-Age"]
			if !ok || s == a.base {
				break
			}
			f.markFresh(time.Since(start))
		}
		select {
		case <-deadline:
			return
		case <-tick.C:
			if ctx.Err() != nil && f.next() == nil {
				return
			}
		}
	}
}

// etagChanges counts how often consecutive ETags differ, skipping
// responses that carried none: each change is one content-changing
// publish the reader saw.
func etagChanges(seq []string) int {
	n, last := 0, ""
	for _, e := range seq {
		if e == "" {
			continue
		}
		if last != "" && e != last {
			n++
		}
		last = e
	}
	return n
}

// usefulRatio is content-changing publishes seen per rebuild started.
func usefulRatio(etagsByModel map[string][]string, rebuilds float64) float64 {
	changes := 0
	for _, seq := range etagsByModel {
		changes += etagChanges(seq)
	}
	return ratio(float64(changes), rebuilds)
}

func setupIngest(r *run, dir string, tr *tracer, i int) (*target, error) {
	cfg := serverConfig{data: []string{dir}, walDir: filepath.Join(r.work, fmt.Sprintf("wal-%d", i)), rebuild: ingestRebuild}
	t, err := startTarget(r, cfg, tr, fmt.Sprintf("serve-%d", i))
	if err != nil {
		return nil, err
	}
	// The scheduler trains the default model at boot; the ranking GET
	// joins that run. Heuristic-Age is trained once here and kept
	// published by the scheduler from then on.
	errs := make(chan error, 2)
	go func() {
		_, _, err := callOK(t.ctl, http.MethodPost, t.base+"/api/models/Heuristic-Age/train", nil, nil)
		errs <- err
	}()
	c := newConn()
	defer c.CloseIdleConnections()
	_, _, err = callOK(c, http.MethodGet, fmt.Sprintf("%s/api/models/DirectAUC-ES/ranking?top=%d", t.base, readerTop), nil, nil)
	if herr := <-errs; err == nil {
		err = herr
	}
	if err != nil {
		_, _ = t.stop()
		return nil, err
	}
	return t, nil
}

func runIngestFresh(r *run) (*result, error) {
	res := newResult()
	dir := filepath.Join(r.work, "data", ingestRegion)
	if err := generate(r.bin, ingestRegion, r.seed, ingestScale, dir); err != nil {
		return nil, err
	}
	net, err := pipefail.LoadNetwork(dir)
	if err != nil {
		return nil, err
	}
	baseHA, err := haScores(net)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	if !r.trace {
		tr = nil
	}
	setups := ingestSetups
	if r.trace {
		setups = 1
	}
	var t *target
	var setupS []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if t, err = setupIngest(r, dir, tr, i); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			if _, err := t.stop(); err != nil {
				return nil, err
			}
		}
	}
	res.metrics["setup_s"] = median(setupS)

	rng := rand.New(rand.NewSource(r.seed))
	plan := drawIngest(rng, r.seconds, net, r.seed)
	fresh := &freshness{}
	acked := make([]bool, len(plan.ops))
	var start time.Time
	for i := range plan.ops {
		i := i
		evs := plan.events[i]
		plan.ops[i].check = func(status int, _ http.Header, body []byte) error {
			if status != http.StatusOK {
				return fmt.Errorf("events status %d: %.200s", status, body)
			}
			var resp struct {
				Accepted int `json:"accepted"`
			}
			if err := json.Unmarshal(body, &resp); err != nil {
				return err
			}
			if resp.Accepted != len(evs) {
				return fmt.Errorf("accepted %d of %d events", resp.Accepted, len(evs))
			}
			acked[i] = true
			if len(evs) == 1 && evs[0].Type == "renewal" {
				fresh.add(&renewalAck{pipe: evs[0].PipeID, acked: time.Since(start), base: baseHA[evs[0].PipeID]})
			}
			return nil
		}
	}
	// The reader alternates the two models' cached top-N; each response's
	// ETag is kept so content-changing publishes can be counted.
	readerAt := poissonTimes(rng, readerRate, 0, r.seconds)
	readerOps := make([]op, len(readerAt))
	readerTags := make([]string, len(readerAt))
	readerModel := make([]string, len(readerAt))
	for i, at := range readerAt {
		i := i
		m := ingestModels[i%2]
		readerModel[i] = m
		readerOps[i] = op{at: at, route: "ranking", method: http.MethodGet,
			path: fmt.Sprintf("/api/models/%s/ranking?top=%d", m, readerTop),
			check: func(status int, hdr http.Header, body []byte) error {
				if status != http.StatusOK {
					return fmt.Errorf("ranking status %d: %.200s", status, body)
				}
				readerTags[i] = hdr.Get("ETag")
				return nil
			}}
	}

	before, err := scrape(t.ctl, t.base)
	if err != nil {
		_, _ = t.stop()
		return nil, err
	}
	eventConn, shared := newConn(), newConn()
	ctx, cancel := context.WithCancel(context.Background())
	start = time.Now()
	var loops sync.WaitGroup
	var evOuts, rdOuts []outcome
	loops.Add(2)
	go func() {
		defer loops.Done()
		evOuts = runOpenLoop(ctx, []*http.Client{eventConn}, t.base, plan.ops, start, 0)
	}()
	go func() {
		defer loops.Done()
		rdOuts = runOpenLoop(ctx, []*http.Client{shared}, t.base, readerOps, start, 1<<20)
	}()
	deadline := time.NewTimer(r.seconds + drainTimeout)
	probed := make(chan struct{})
	var probeProblems []string
	go func() {
		defer close(probed)
		probe(ctx, shared, t.base, fresh, start, deadline.C, func(f string, a ...any) {
			probeProblems = append(probeProblems, fmt.Sprintf(f, a...))
		})
	}()
	toggled := toggleTracing(ctx, r, t.tracing, start)
	// The window ends once both open loops have sent their schedules; the
	// probe keeps draining the renewals still pending after that.
	loops.Wait()
	cancel()
	<-probed
	deadline.Stop()
	<-toggled
	for _, p := range probeProblems {
		res.problem("%s", p)
	}
	closeConns([]*http.Client{eventConn, shared})

	after, err := scrape(t.ctl, t.base)
	if err != nil {
		_, _ = t.stop()
		return nil, err
	}
	var fails []pipefail.Failure
	var renewals []pipefail.Renewal
	nAcked := 0
	for i, ok := range acked {
		if !ok {
			continue
		}
		for _, e := range plan.events[i] {
			nAcked++
			if e.Type == "renewal" {
				renewals = append(renewals, pipefail.Renewal{PipeID: e.PipeID, Year: e.Year})
			} else {
				fails = append(fails, e.failure())
			}
		}
	}
	if !r.trace {
		ingestCorrect(res, t, net, fails, renewals, nAcked)
	}
	peak, err := t.stop()
	if err != nil {
		return nil, err
	}
	res.metrics["peak_rss_mb"] = peak

	res.count(evOuts)
	res.count(rdOuts)
	res.attempted += len(fresh.acks)
	var freshS []float64
	for _, a := range fresh.acks {
		if !a.seen {
			res.failed++
			res.problem("renewal of %s never seen fresh", a.pipe)
			continue
		}
		freshS = append(freshS, a.fresh.Seconds())
	}
	allOuts := append(append([]outcome(nil), evOuts...), rdOuts...)
	recordGenLag(res, allOuts)

	var single, batch, reads []float64
	for i, o := range evOuts {
		if len(plan.events[i]) == 1 {
			single = append(single, ms(o.latency()))
		} else {
			batch = append(batch, ms(o.latency()))
		}
	}
	etags := map[string][]string{}
	for i, o := range rdOuts {
		reads = append(reads, ms(o.latency()))
		etags[readerModel[i]] = append(etags[readerModel[i]], readerTags[i])
	}
	sd, bd, rd, fd := summarize(single), summarize(batch), summarize(reads), summarize(freshS)
	res.metrics["op_p50_ms"], res.metrics["op_tail_ms"] = sd.P50, p90(single)
	res.named["ingest_p90_ms"] = res.metrics["op_tail_ms"]
	res.metrics["aux_p50_ms"] = fd.P50 * 1000
	rebuilds := counterDelta(before, after, "serve.sched.rebuilds", "")
	res.metrics["serve.sched.rebuilds"] = rebuilds
	res.metrics["serve.sched.useful_ratio"] = usefulRatio(etags, rebuilds)
	res.metrics["wal.appends_per_fsync"] = ratio(counterDelta(before, after, "serve.wal", ".appends"),
		counterDelta(before, after, "serve.wal", ".fsyncs"))
	for k, v := range map[string]float64{
		"ingest_p50_ms": sd.P50, "ingest_p99_ms": sd.Tail, "ingest_tail_pct": sd.TailP, "ingest_samples": float64(sd.N),
		"ingest_batch_p50_ms": bd.P50, "ingest_batches": float64(bd.N),
		"fresh_p50_s": fd.P50, "fresh_p95_s": fd.Tail, "fresh_tail_pct": fd.TailP, "fresh_samples": float64(fd.N),
		"read_during_rebuild_p99_ms": rd.Tail, "read_during_rebuild_tail_pct": rd.TailP,
		"serve.sched.rebuilds": rebuilds, "serve.sched.useful_ratio": res.metrics["serve.sched.useful_ratio"],
		"wal.appends_per_fsync": res.metrics["wal.appends_per_fsync"], "events_acked": float64(nAcked),
	} {
		res.named[k] = v
	}
	if !r.trace {
		return res, nil
	}

	spans := tr.snapshot()
	httpLayers(res, spans, allOuts)
	res.metrics["bench.gen_lag_ms"] = res.genLagMS
	res.metrics["bench.trace_overhead_ms"] = overheadMS(allOuts)
	eventGrowth(res, spans, plan)
	if err := walReplay(res, tr, r, plan, acked); err != nil {
		return nil, err
	}
	if v, ok := nonWALUS(tr.snapshot(), plan); ok {
		res.metrics["serve.events.nonwal_us"] = v
	}
	if err := retrainChain(res, tr, dir, fails, renewals, ingestModels, nil); err != nil {
		return nil, err
	}
	if err := aucReplay(res, tr, net, fails); err != nil {
		return nil, err
	}
	return res, r.saveSpans(tr)
}

// haScores is the Heuristic-Age score of every pipe before any event.
func haScores(net *pipefail.Network) (map[string]float64, error) {
	p, err := pipefail.NewPipeline(net, pipefail.WithSeed(1))
	if err != nil {
		return nil, err
	}
	ranking, err := p.TrainAndRank("Heuristic-Age")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, ranking.Len())
	for i, id := range ranking.PipeIDs {
		out[id] = ranking.Scores[i]
	}
	return out, nil
}

// ingestCorrect checks the end state: the server applied exactly the
// acknowledged events, and once the scheduler has caught up its served
// rankings equal the in-process rankings over the event-extended
// network.
func ingestCorrect(res *result, t *target, net *pipefail.Network, fails []pipefail.Failure, renewals []pipefail.Renewal, nAcked int) {
	var nw struct {
		LiveEvents int `json:"live_events"`
	}
	if _, _, err := callOK(t.ctl, http.MethodGet, t.base+"/api/network", nil, &nw); err != nil {
		res.problem("network: %v", err)
	} else if nw.LiveEvents != nAcked {
		res.problem("live_events %d, acknowledged %d", nw.LiveEvents, nAcked)
	}
	p, err := pipefail.NewPipeline(net.ExtendLive(fails, renewals), pipefail.WithSeed(1))
	if err != nil {
		res.problem("extended pipeline: %v", err)
		return
	}
	for _, m := range ingestModels {
		ranking, err := p.TrainAndRank(m)
		if err != nil {
			res.problem("train %s: %v", m, err)
			continue
		}
		// The scheduler may still be publishing the last retrain; give it
		// until the deadline to serve the expected ranking.
		deadline := time.Now().Add(drainTimeout)
		for {
			body, _, err := callOK(t.ctl, http.MethodGet, fmt.Sprintf("%s/api/models/%s/ranking?top=%d", t.base, m, readerTop), nil, nil)
			if err != nil {
				res.problem("final ranking %s: %v", m, err)
				break
			}
			probe := newResult()
			compareRanking(probe, "final "+m, body, ranking, readerTop)
			if len(probe.problems) == 0 {
				break
			}
			if time.Now().After(deadline) {
				res.problems = append(res.problems, probe.problems...)
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
}

// eventGrowth is the per-event handler time in the last tenth of the
// traced events over that in the first tenth: above 1 when ingest cost
// grows with history.
func eventGrowth(res *result, spans []span, plan ingestPlan) {
	var per []float64
	for _, s := range spans {
		if s.Name == "serve.handler.events" && s.Op >= 0 && int(s.Op) < len(plan.events) {
			per = append(per, us(s.dur())/float64(len(plan.events[s.Op])))
		}
	}
	n := len(per) / 10
	if n == 0 {
		return
	}
	res.metrics["serve.events.growth"] = ratio(median(per[len(per)-n:]), median(per[:n]))
}

// nonWALUS is the events handler's time outside the log: for each traced
// single-event POST, its handler span minus the wal.request span the
// replay recorded for the same op, and then the median. Batches are left
// out, so every value is one request's worth of one event. The log half
// comes from the replay because the benchmark cannot time the server's
// own log calls without changing the program.
func nonWALUS(spans []span, plan ingestPlan) (float64, bool) {
	walTime := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Name == "wal.request" {
			walTime[s.Op] = s.dur()
		}
	}
	var d []float64
	for _, s := range spans {
		if s.Name != "serve.handler.events" || s.Op < 0 || int(s.Op) >= len(plan.events) || len(plan.events[s.Op]) != 1 {
			continue
		}
		if w, ok := walTime[s.Op]; ok {
			d = append(d, us(s.dur()-w))
		}
	}
	return median(d), len(d) > 0
}

// walReplay writes the run's acknowledged payloads to a fresh log with
// the run's sync policy, one request at a time as the server did, with
// a span around every Open, Append and WaitDurable.
func walReplay(res *result, tr *tracer, r *run, plan ingestPlan, acked []bool) error {
	var (
		w   *wal.WAL
		err error
	)
	tr.do("wal.open", 0, 0, func(int) {
		w, err = wal.Open(filepath.Join(r.work, "wal-replay"), wal.Options{Sync: wal.SyncAlways, MetricsName: "bench.wal"},
			func([]byte) error { return nil })
	})
	if err != nil {
		return err
	}
	for i, evs := range plan.events {
		if !acked[i] {
			continue
		}
		if err := walRequest(tr, w, evs, int64(i)); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	self := selfByName(tr.snapshot())
	toUS := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = us(d)
		}
		return out
	}
	res.metrics["wal.append_us"] = median(toUS(self["wal.append"]))
	wait := summarize(toUS(self["wal.wait_durable"]))
	res.metrics["wal.wait_durable_us"] = wait.P50
	res.metrics["wal.fsync_p99_ms"] = wait.Tail / 1000
	return nil
}

// walRequest logs one request's events as the events handler does:
// append each, then wait until the last is durable.
func walRequest(tr *tracer, w *wal.WAL, evs []event, op int64) error {
	root := tr.begin("wal.request", 0, op)
	defer tr.end(root)
	var end int64
	for _, e := range evs {
		payload, err := json.Marshal(e)
		if err != nil {
			return err
		}
		tr.do("wal.append", root, op, func(int) { end, err = w.Append(payload) })
		if err != nil {
			return err
		}
	}
	var err error
	tr.do("wal.wait_durable", root, op, func(int) { err = w.WaitDurable(end) })
	return err
}

// aucReplay times the drift AUC every events POST computes: the default
// model's scores against the live window's failure labels.
func aucReplay(res *result, tr *tracer, net *pipefail.Network, fails []pipefail.Failure) error {
	p, err := pipefail.NewPipeline(net, pipefail.WithSeed(1))
	if err != nil {
		return err
	}
	ranking, err := p.TrainAndRank("Heuristic-Age")
	if err != nil {
		return err
	}
	hit := map[string]bool{}
	for _, f := range fails {
		hit[f.PipeID] = true
	}
	labels := make([]bool, ranking.Len())
	for i, id := range ranking.PipeIDs {
		labels[i] = hit[id]
	}
	var ds []float64
	for i := 0; i < 50; i++ {
		id := tr.begin("eval.auc", 0, 0)
		_ = eval.AUC(ranking.Scores, labels)
		tr.end(id)
	}
	for _, d := range selfByName(tr.snapshot())["eval.auc"] {
		ds = append(ds, us(d))
	}
	res.metrics["eval.auc_us"] = median(ds)
	return nil
}
