package main

import (
	"bytes"
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
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
)

// read-mix: a warmed three-shard server answering an open-loop mix of
// cached rankings, Zipf-keyed plans, bulk fan-outs and uncached pipe
// lookups. No ingest, no scheduler, no training inside the window. The
// shares and rates are assumptions, not a model of users; README.md says
// what each is for.
const (
	readScale  = 1.0
	readSetups = 3
	// readRate is the nominal arrival rate in requests per second; the
	// capacity steps run at readRate times readSteps.
	readRate  = 400.0
	readLimit = 25 * time.Millisecond // p99 limit for read capacity
	// readGatedTail is the percentile op_tail_ms reports. About one read
	// in nine is a plan that misses the cache, so p90 sits on the edge
	// between hits and misses and jumps with the miss share and the host's
	// speed: its spread over ten seeds was 0.19 to 0.28 on a 2-vCPU host,
	// against 0.07 to 0.10 for p75. The p99 is still printed.
	readGatedTail = 75
	// planKeys distinct budgets of planStepKM each: their encoded plans
	// add up to well over the default 32 MiB response cache, so the Zipf
	// head hits and the tail misses and evicts.
	planKeys   = 4000
	planStepKM = 3.0
	planZipfS  = 1.05
	// One plan in planCostEvery names a non-default inspection cost, so
	// the per-snapshot prefix build runs inside the window.
	planCostEvery = 20
	// maxGenLag is the generator's p99 lateness above which an untraced
	// run is invalid: one mean arrival gap of ingest-fresh's 100/s loops,
	// and over twice the largest p99 seen on a 2-vCPU host.
	maxGenLag = 10 * time.Millisecond
)

var (
	readRegions = []string{"A", "B", "C"}
	readModels  = []string{"DirectAUC-ES", "Heuristic-Age"}
	readTops    = []int{10, 50, 100, 500}
	readSteps   = []float64{1, 4, 8}
	// nominalShare of the window runs at readRate; the rest is split
	// evenly across the higher capacity steps.
	nominalShare = 0.6
)

type rankKey struct {
	region, model string
	top           int
}

type warmRanking struct {
	body []byte
	etag string
}

// readInputs are the generated datasets and what the benchmark knows
// about them in-process.
type readInputs struct {
	dirs []string
	nets []*pipefail.Network
	ids  [][]string // pipe IDs per region
}

func genReadInputs(r *run) (*readInputs, error) {
	in := &readInputs{}
	for _, reg := range readRegions {
		dir := filepath.Join(r.work, "data", reg)
		if err := generate(r.bin, reg, r.seed, readScale, dir); err != nil {
			return nil, err
		}
		n, err := pipefail.LoadNetwork(dir)
		if err != nil {
			return nil, err
		}
		ids := make([]string, 0, n.NumPipes())
		for _, p := range n.Pipes() {
			ids = append(ids, p.ID)
		}
		in.dirs, in.nets, in.ids = append(in.dirs, dir), append(in.nets, n), append(in.ids, ids)
	}
	return in, nil
}

// setupRead starts a server, trains both models on every shard over two
// connections and warms every ranking the mix asks for.
func setupRead(r *run, in *readInputs, tr *tracer, name string) (*target, map[rankKey]warmRanking, error) {
	t, err := startTarget(r, serverConfig{data: in.dirs}, tr, name)
	if err != nil {
		return nil, nil, err
	}
	type job struct{ region, model string }
	var jobs []job
	for _, m := range readModels {
		for _, reg := range readRegions {
			jobs = append(jobs, job{reg, m})
		}
	}
	var (
		mu   sync.Mutex
		next int
		errs []error
		wg   sync.WaitGroup
	)
	conns := []*http.Client{newConn(), newConn()}
	defer closeConns(conns)
	for _, c := range conns {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(jobs) {
					return
				}
				url := fmt.Sprintf("%s/api/models/%s/train?region=%s", t.base, jobs[i].model, jobs[i].region)
				if _, _, err := callOK(c, http.MethodPost, url, nil, nil); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	if len(errs) > 0 {
		_, _ = t.stop()
		return nil, nil, errs[0]
	}
	warm := map[rankKey]warmRanking{}
	for _, reg := range readRegions {
		for _, m := range readModels {
			for _, top := range readTops {
				url := fmt.Sprintf("%s/api/models/%s/ranking?top=%d&region=%s", t.base, m, top, reg)
				body, hdr, err := callOK(t.ctl, http.MethodGet, url, nil, nil)
				if err != nil {
					_, _ = t.stop()
					return nil, nil, err
				}
				warm[rankKey{reg, m, top}] = warmRanking{body: body, etag: hdr.Get("ETag")}
			}
		}
	}
	return t, warm, nil
}

// phase is one fixed-rate stretch of an open loop.
type phase struct {
	rate     float64
	from, to time.Duration
}

func readPhases(window time.Duration) []phase {
	nominal := time.Duration(float64(window) * nominalShare)
	ps := []phase{{readRate * readSteps[0], 0, nominal}}
	step := (window - nominal) / time.Duration(len(readSteps)-1)
	for i, k := range readSteps[1:] {
		from := nominal + time.Duration(i)*step
		ps = append(ps, phase{readRate * k, from, from + step})
	}
	return ps
}

// readOps draws the request schedule for the phases from rng.
func readOps(rng *rand.Rand, phases []phase, in *readInputs, warm map[rankKey]warmRanking) []op {
	zipf := rand.NewZipf(rng, planZipfS, 1, planKeys-1)
	var ops []op
	for _, ph := range phases {
		for _, at := range poissonTimes(rng, ph.rate, ph.from, ph.to) {
			ri := rng.Intn(len(readRegions))
			reg := readRegions[ri]
			var o op
			// The four kinds come equally often, and every choice within a
			// kind is uniform too: nothing says one is more common.
			switch rng.Intn(4) {
			case 0:
				model := readModels[rng.Intn(len(readModels))]
				top := readTops[rng.Intn(len(readTops))]
				w := warm[rankKey{reg, model, top}]
				o = op{route: "ranking", method: http.MethodGet,
					path: fmt.Sprintf("/api/models/%s/ranking?top=%d&region=%s", model, top, reg)}
				if rng.Intn(2) == 0 {
					o.etag = w.etag
				}
				o.check = rankingCheck(w, o.etag != "")
			case 1:
				km := planStepKM * float64(zipf.Uint64()+1)
				body := fmt.Sprintf(`{"model":"DirectAUC-ES","region":%q,"budget_km":%g}`, reg, km)
				if rng.Intn(planCostEvery) == 0 {
					body = fmt.Sprintf(`{"model":"DirectAUC-ES","region":%q,"budget_km":%g,"inspection_per_km":%d}`,
						reg, km, 6000+3000*rng.Intn(3))
				}
				o = op{route: "plan", method: http.MethodPost, path: "/api/plan", body: []byte(body),
					ctype: "application/json", check: prefixCheck(`{"model":"DirectAUC-ES"`)}
			case 2:
				top := readTops[rng.Intn(len(readTops))]
				body := fmt.Sprintf(`{"model":"DirectAUC-ES","top":%d,"regions":["A","B","C"]}`, top)
				o = op{route: "bulkrank", method: http.MethodPost, path: "/api/bulk/rank", body: []byte(body),
					ctype: "application/json", check: bulkCheck(len(readRegions))}
			default:
				id := in.ids[ri][rng.Intn(len(in.ids[ri]))]
				o = op{route: "pipe", method: http.MethodGet, path: "/api/pipes/" + id + "?region=" + reg,
					check: prefixCheck("{")}
			}
			o.at = at
			ops = append(ops, o)
		}
	}
	return ops
}

// rankingCheck requires the served ranking to be byte-identical to the
// one served at set-up; nothing may change it within the run.
func rankingCheck(w warmRanking, conditional bool) func(int, http.Header, []byte) error {
	return func(status int, hdr http.Header, body []byte) error {
		switch {
		case conditional && status == http.StatusNotModified:
			if hdr.Get("ETag") != w.etag {
				return fmt.Errorf("304 with ETag %s, want %s", hdr.Get("ETag"), w.etag)
			}
			return nil
		case status != http.StatusOK:
			return fmt.Errorf("ranking status %d", status)
		case !bytes.Equal(body, w.body):
			return fmt.Errorf("ranking body changed within the run")
		}
		return nil
	}
}

func prefixCheck(prefix string) func(int, http.Header, []byte) error {
	return func(status int, _ http.Header, body []byte) error {
		if status != http.StatusOK {
			return fmt.Errorf("status %d: %.200s", status, body)
		}
		if !bytes.HasPrefix(body, []byte(prefix)) {
			return fmt.Errorf("body does not start with %s: %.100s", prefix, body)
		}
		return nil
	}
}

func bulkCheck(lines int) func(int, http.Header, []byte) error {
	return func(status int, _ http.Header, body []byte) error {
		if status != http.StatusOK {
			return fmt.Errorf("status %d: %.200s", status, body)
		}
		if n := bytes.Count(body, []byte("\n")); n != lines {
			return fmt.Errorf("bulk stream has %d lines, want %d", n, lines)
		}
		if bytes.Contains(body, []byte(`{"error"`)) {
			return fmt.Errorf("bulk stream carries an error segment: %.200s", body)
		}
		return nil
	}
}

func runReadMix(r *run) (*result, error) {
	res := newResult()
	in, err := genReadInputs(r)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	if !r.trace {
		tr = nil
	}

	// Set up several times and keep the last server: the median set-up
	// is steadier than one cold start.
	setups := readSetups
	if r.trace {
		setups = 1
	}
	var (
		t      *target
		warm   map[rankKey]warmRanking
		setupS []float64
	)
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		t, warm, err = setupRead(r, in, tr, fmt.Sprintf("serve-%d", i))
		if err != nil {
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
	phases := readPhases(r.seconds)
	ops := readOps(rng, phases, in, warm)
	before, err := scrape(t.ctl, t.base)
	if err != nil {
		_, _ = t.stop()
		return nil, err
	}
	conns := []*http.Client{newConn(), newConn()}
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	toggled := toggleTracing(ctx, r, t.tracing, start)
	outs := runOpenLoop(ctx, conns, t.base, ops, start, 0)
	cancel()
	<-toggled
	closeConns(conns)
	after, err := scrape(t.ctl, t.base)
	if err != nil {
		_, _ = t.stop()
		return nil, err
	}
	peak, err := t.stop()
	if err != nil {
		return nil, err
	}
	res.metrics["peak_rss_mb"] = peak
	res.count(outs)
	readFigures(res, phases, outs)
	planCounters(res, before, after)
	if !r.trace {
		readCorrect(res, r, in, warm)
		return res, nil
	}
	spans := tr.snapshot()
	httpLayers(res, spans, outs)
	res.metrics["bench.gen_lag_ms"] = res.genLagMS
	res.metrics["bench.trace_overhead_ms"] = overheadMS(outs)
	if err := retrainChain(res, tr, in.dirs[0], nil, nil, readModels, planBudgets(ops, readRegions[0])); err != nil {
		return nil, err
	}
	return res, r.saveSpans(tr)
}

// readFigures computes the latency, capacity and generator figures of a
// read-mix loop.
func readFigures(res *result, phases []phase, outs []outcome) {
	recordGenLag(res, outs)
	capacity, capOK := 0.0, true
	for pi, ph := range phases {
		var lat []float64
		var inPhase []outcome
		failed := 0
		for _, o := range outs {
			if o.at >= ph.from && o.at < ph.to {
				inPhase = append(inPhase, o)
				lat = append(lat, ms(o.latency()))
				if !o.ok() {
					failed++
				}
			}
		}
		d := summarize(lat)
		name := fmt.Sprintf("read.step%d_%.0frps", pi, ph.rate)
		res.named[name+".p50_ms"] = d.P50
		res.named[name+".tail_ms"] = d.Tail
		res.named[name+".tail_pct"] = d.TailP
		grow := growingBacklog(inPhase, 2*time.Millisecond)
		if pi == 0 {
			sorted := append([]float64(nil), lat...)
			sort.Float64s(sorted)
			res.metrics["op_p50_ms"] = d.P50
			res.metrics["op_tail_ms"] = percentile(sorted, readGatedTail)
			for _, p := range []float64{75, 90, 95} {
				res.named[fmt.Sprintf("read_p%.0f_ms", p)] = percentile(sorted, p)
			}
			res.named["read_p50_ms"] = d.P50
			res.named["read_p99_ms"] = d.Tail
			res.named["read_tail_pct"] = d.TailP
			res.named["read_samples"] = float64(d.N)
			byRoute := map[string][]float64{}
			for _, o := range inPhase {
				byRoute[o.route] = append(byRoute[o.route], ms(o.latency()))
			}
			for rt, v := range byRoute {
				rd := summarize(v)
				res.named["read."+rt+".p50_ms"] = rd.P50
				res.named["read."+rt+".tail_ms"] = rd.Tail
			}
			res.metrics["aux_p50_ms"] = summarize(byRoute["plan"]).P50
		}
		// Capacity is the highest step that, like every step below it,
		// met the limit without failures or a growing backlog.
		capOK = capOK && failed == 0 && d.HasTail && d.Tail < ms(readLimit) && !grow
		if capOK {
			capacity = ph.rate
		}
	}
	res.named["read_capacity_rps"] = capacity
}

// recordGenLag records the generator's p99 lateness and marks the run invalid
// when it exceeds maxGenLag: then the generator, not the server, fell
// behind the schedule.
func recordGenLag(res *result, outs []outcome) {
	lags := make([]float64, 0, len(outs))
	for _, o := range outs {
		lags = append(lags, ms(o.genLag()))
	}
	sort.Float64s(lags)
	res.genLagMS = percentile(lags, 99)
	res.named["bench.gen_lag_p50_ms"] = percentile(lags, 50)
	res.genValid = res.genLagMS <= ms(maxGenLag)
}

// planCounters turns /metrics deltas into the plan and response-cache
// layer figures.
func planCounters(res *result, before, after obs.Snapshot) {
	hits := counterDelta(before, after, "serve.plan.cache_hits", "")
	misses := counterDelta(before, after, "serve.plan.cache_misses", "")
	res.metrics["serve.plan.cache_hit_ratio"] = ratio(hits, hits+misses)
	res.metrics["serve.plan.prefix_builds"] = counterDelta(before, after, "serve.plan.prefix_builds", "")
	ch := counterDelta(before, after, "respcache.", ".hits")
	cm := counterDelta(before, after, "respcache.", ".misses")
	res.metrics["respcache.hit_ratio"] = ratio(ch, ch+cm)
	res.metrics["respcache.evictions"] = counterDelta(before, after, "respcache.", ".evictions")
	res.metrics["respcache.bytes"] = gaugeSum(after, "respcache.", ".bytes")
	res.metrics["serve.sched.rebuilds"] = counterDelta(before, after, "serve.sched.rebuilds", "")
	for _, k := range []string{"serve.plan.cache_hit_ratio", "serve.plan.prefix_builds", "respcache.hit_ratio",
		"respcache.evictions", "respcache.bytes", "serve.sched.rebuilds"} {
		res.named[k] = res.metrics[k]
	}
	for name, v := range after.Counters {
		if strings.HasPrefix(name, "respcache.") {
			res.named[name] = float64(v - before.Counters[name])
		}
	}
}

type servedEntry struct {
	PipeID string  `json:"pipe_id"`
	Score  float64 `json:"score"`
}

// readCorrect compares the served rankings with the in-process pipefail
// rankings of the same datasets and learner seed: Heuristic-Age on every
// region, and DirectAUC-ES on one region the seed picks (a full-scale ES
// fit is the expensive part of the check).
func readCorrect(res *result, r *run, in *readInputs, warm map[rankKey]warmRanking) {
	top := readTops[len(readTops)-1]
	esRegion := int(r.seed % int64(len(readRegions)))
	if esRegion < 0 {
		esRegion = -esRegion
	}
	for ri, reg := range readRegions {
		p, err := pipefail.NewPipeline(in.nets[ri], pipefail.WithSeed(1))
		if err != nil {
			res.problem("pipeline %s: %v", reg, err)
			continue
		}
		for _, m := range readModels {
			if m == "DirectAUC-ES" && ri != esRegion {
				continue
			}
			ranking, err := p.TrainAndRank(m)
			if err != nil {
				res.problem("train %s/%s: %v", reg, m, err)
				continue
			}
			compareRanking(res, reg+"/"+m, warm[rankKey{reg, m, top}].body, ranking, top)
		}
	}
}

// compareRanking checks a served top-N body against an in-process
// ranking: same pipes, same order, bit-identical scores.
func compareRanking(res *result, label string, body []byte, ranking *pipefail.Ranking, top int) {
	var served []servedEntry
	if err := json.Unmarshal(body, &served); err != nil {
		res.problem("%s: decode served ranking: %v", label, err)
		return
	}
	want := ranking.TopIDs(top)
	if len(served) != len(want) {
		res.problem("%s: served %d entries, in-process ranking has %d", label, len(served), len(want))
		return
	}
	score := make(map[string]float64, ranking.Len())
	for i, id := range ranking.PipeIDs {
		score[id] = ranking.Scores[i]
	}
	for i, e := range served {
		if e.PipeID != want[i] || e.Score != score[e.PipeID] {
			res.problem("%s: rank %d served %s (%v), in-process %s (%v)", label, i+1, e.PipeID, e.Score, want[i], score[want[i]])
			return
		}
	}
}

// planBudgets lists the budgets the schedule sends for one region under
// the default cost model, in schedule order.
func planBudgets(ops []op, region string) []plan.Budget {
	var out []plan.Budget
	for _, o := range ops {
		if o.route != "plan" {
			continue
		}
		var req struct {
			Region   string   `json:"region"`
			BudgetKM float64  `json:"budget_km"`
			Insp     *float64 `json:"inspection_per_km"`
		}
		if json.Unmarshal(o.body, &req) == nil && req.Region == region && req.Insp == nil {
			out = append(out, plan.Budget{MaxLengthM: req.BudgetKM * 1000})
		}
	}
	return out
}

// defaultCost mirrors the server's default plan pricing.
var defaultCost = plan.CostModel{InspectionPerKM: 8000, FailureCost: 150000}

// retrainChain replays, with a span around each call, the chain the
// server runs to publish a snapshot: open the data, extend it with the
// live events, build the features, fit, rank, calibrate, and build and
// query the plan prefix. It fills the data, feature, core, eval and plan
// layer metrics.
func retrainChain(res *result, tr *tracer, dir string, fails []pipefail.Failure, renewals []pipefail.Renewal, models []string, budgets []plan.Budget) error {
	root := tr.begin("retrain", 0, 0)
	defer tr.end(root)
	var (
		data *pipefail.Data
		err  error
	)
	tr.do("colfmt.open", root, 0, func(int) { data, err = pipefail.OpenData(dir) })
	if err != nil {
		return err
	}
	var p *pipefail.Pipeline
	if len(fails)+len(renewals) == 0 {
		tr.do("feature.build", root, 0, func(int) { p, err = pipefail.NewPipelineData(data, pipefail.WithSeed(1)) })
	} else {
		var net *pipefail.Network
		if net, err = data.Network(); err != nil {
			return err
		}
		tr.do("dataset.extend_live", root, 0, func(int) { net = net.ExtendLive(fails, renewals) })
		tr.do("feature.build", root, 0, func(int) { p, err = pipefail.NewPipeline(net, pipefail.WithSeed(1)) })
	}
	if err != nil {
		return err
	}
	for _, m := range models {
		var (
			model   pipefail.Model
			ranking *pipefail.Ranking
		)
		tr.do("core.fit."+m, root, 0, func(int) { model, err = p.Train(m) })
		if err != nil {
			return err
		}
		tr.do("eval.rank", root, 0, func(int) { ranking, err = p.Rank(model) })
		if err != nil {
			return err
		}
		cal := &core.IsotonicCalibrator{}
		tr.do("core.calibrate", root, 0, func(int) { err = cal.FitCal(ranking.Scores, ranking.Failed) })
		if err != nil {
			return err
		}
		if m != models[0] || len(budgets) == 0 {
			continue
		}
		probs := cal.ProbAll(ranking.Scores, nil)
		cands := make([]plan.Candidate, ranking.Len())
		for i, id := range ranking.PipeIDs {
			cands[i] = plan.Candidate{ID: id, FailProb: probs[i], LengthM: ranking.LengthM[i]}
		}
		var px *plan.Prefix
		tr.do("plan.build_prefix", root, 0, func(int) { px, err = plan.BuildPrefix(cands, defaultCost) })
		if err != nil {
			return err
		}
		for _, b := range budgets {
			tr.do("plan.prefix_plan", root, 0, func(int) { _, err = px.Plan(b) })
			if err != nil {
				return err
			}
		}
	}
	layerTimes(res, tr.snapshot())
	return nil
}

// layerTimes turns the chain's spans into per-layer medians.
func layerTimes(res *result, spans []span) {
	self := selfByName(spans)
	med := func(name string, unit time.Duration) {
		if v := self[name]; len(v) > 0 {
			f := make([]float64, len(v))
			for i, d := range v {
				f[i] = float64(d) / float64(unit)
			}
			res.metrics[layerName(name)] = median(f)
		}
	}
	med("colfmt.open", time.Millisecond)
	med("dataset.extend_live", time.Millisecond)
	med("feature.build", time.Millisecond)
	med("eval.rank", time.Millisecond)
	med("core.calibrate", time.Millisecond)
	med("plan.build_prefix", time.Microsecond)
	med("plan.prefix_plan", time.Microsecond)
	for name := range self {
		if strings.HasPrefix(name, "core.fit.") {
			med(name, time.Second)
		}
	}
}

// layerName maps a span name to its catalog metric.
func layerName(span string) string {
	switch span {
	case "colfmt.open":
		return "colfmt.open_ms"
	case "dataset.extend_live":
		return "dataset.extend_live_ms"
	case "feature.build":
		return "feature.build_ms"
	case "eval.rank":
		return "eval.rank_ms"
	case "core.calibrate":
		return "core.calibrate_ms"
	case "plan.build_prefix":
		return "plan.build_prefix_us"
	case "plan.prefix_plan":
		return "plan.prefix_plan_us"
	}
	if m, ok := strings.CutPrefix(span, "core.fit."); ok {
		return "core.fit_s." + m
	}
	return span
}
