package serve

// Bulk endpoints: POST /api/bulk/rank and POST /api/bulk/plan take many
// regions (and, for rank, individual pipe IDs) in one request and
// stream one NDJSON line per segment back, flushed as each resolves.
//
// The design goal is that bulk is a framing layer, never a second
// implementation: a region line splices the body the single-region
// handler serves, cut from the same snapshot encoding (rankings) or
// encoded by the same code from the same plan prefix (plans), so its
// payload is byte-identical to the corresponding single call's body.
// Resolution runs in three phases:
//
//  1. serial: every segment whose model is published resolves inline
//     (resolveSeg) — the all-published path touches no goroutines,
//     channels or heap;
//  2. fan-out: segments whose model must train first run getShard
//     concurrently on the server's worker pool (joining the shard's
//     training singleflight), then resolve, each closing a ready
//     channel;
//  3. ordered writer: lines stream in request order, waiting on each
//     segment's ready channel, flushing per line — so early segments
//     reach the client while late ones still train.
//
// Failures after the stream starts cannot become HTTP errors (the 200
// is gone); they become per-segment {"error": ...} lines instead.

import (
	"bytes"
	"errors"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/plan"
)

// ndjsonCT is the streamed bulk Content-Type, preallocated like jsonCT.
var ndjsonCT = []string{"application/x-ndjson"}

// bulkRequest is the decoded POST /api/bulk/{rank,plan} body: the plan
// request's model and pricing fields plus a "top" count and the region
// and pipe-ID lists. Top is a pointer so "explicitly 0" (a client bug)
// and "absent" (use the default) stay distinguishable. Values come out
// of s.bulkBodies and are shared, so handlers never mutate one.
type bulkRequest struct {
	Model           string   `json:"model"`
	Top             *int     `json:"top"`
	Regions         []string `json:"regions"`
	PipeIDs         []string `json:"pipe_ids"`
	BudgetKM        float64  `json:"budget_km"`
	MaxPipes        int      `json:"max_pipes"`
	InspectionPerKM *float64 `json:"inspection_per_km"`
	FailureCost     *float64 `json:"failure_cost"`
	MaxSpend        *float64 `json:"max_spend"`
}

func (r *bulkRequest) memoBytes() int {
	n := len(r.Model) + 16*(len(r.Regions)+len(r.PipeIDs))
	for _, id := range r.Regions {
		n += len(id)
	}
	for _, id := range r.PipeIDs {
		n += len(id)
	}
	return n
}

// segQuery is what a bulk request asks of each region segment: the
// top-N ranking when top > 0, otherwise the plan priced by cm under b.
type segQuery struct {
	top int
	cm  plan.CostModel
	b   plan.Budget
}

// bulkSeg is one output line in flight: a region segment (pipeID empty)
// or a per-pipe segment. ready is nil when phase 1 resolved the segment
// inline; otherwise the training fan-out closes it once tm/rank/px/errMsg
// are final.
type bulkSeg struct {
	sh     *shard
	pipeID string // points into the memoized request; empty for region segments
	row    int    // the pipe's registry row in sh, for per-pipe segments
	tm     *modelSnapshot
	rank   []byte      // ranking segments: the ranking body the line splices
	px     *planPrefix // plan segments: the prefix the plan is cut from
	errMsg string
	ready  chan struct{}
}

// reqScratch bundles the per-request scratch of the plan and bulk
// handlers — bulk segments and line, a plan's body and selection tail —
// so the steady state recycles one pool object.
type reqScratch struct {
	segs []bulkSeg
	line []byte
	body []byte
	tail []int
}

// planBody selects the plan for b off pp and encodes its response body
// into the scratch, returning it and where its totals start (see
// appendPlanTotals); the status accompanies a non-nil error. totals,
// when not nil, is that tail of an earlier body for the same prefix and
// budget, copied instead of encoded again.
func (sc *reqScratch) planBody(pp *planPrefix, model string, b plan.Budget, totals []byte) ([]byte, int, int, error) {
	sel, err := pp.Select(b, sc.tail)
	if err != nil {
		return nil, 0, http.StatusBadRequest, err
	}
	sc.tail = sel.Tail
	sc.body = pp.appendPlanPipes(sc.body[:0], model, sel)
	cut := len(sc.body)
	if totals != nil {
		sc.body = append(sc.body, totals...)
		return sc.body, cut, 0, nil
	}
	var ok bool
	if sc.body, ok = appendPlanTotals(sc.body, sel); !ok {
		return nil, 0, http.StatusInternalServerError, errors.New("encoding plan failed")
	}
	return sc.body, cut, 0, nil
}

// release drops references into the request and snapshots while keeping
// slice capacity for the next request.
func (sc *reqScratch) release() {
	for i := range sc.segs {
		sc.segs[i] = bulkSeg{}
	}
	sc.segs = sc.segs[:0]
}

var scratchPool = sync.Pool{New: func() any { return new(reqScratch) }}

func (s *Server) handleBulkRank(w http.ResponseWriter, r *http.Request) {
	s.serveBulk(w, r, false)
}

func (s *Server) handleBulkPlan(w http.ResponseWriter, r *http.Request) {
	s.serveBulk(w, r, true)
}

func (s *Server) serveBulk(w http.ResponseWriter, r *http.Request, isPlan bool) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	sc := scratchPool.Get().(*reqScratch)
	s.streamBulk(w, r, buf, sc, isPlan)
	// streamBulk has waited out every phase-2 segment before returning,
	// so nothing concurrent still references the segments.
	sc.release()
	scratchPool.Put(sc)
	if buf.Cap() <= bufPoolMax {
		bufPool.Put(buf)
	}
}

func (s *Server) streamBulk(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer, sc *reqScratch, isPlan bool) {
	if !s.readBody(w, r, buf) {
		return
	}
	req, err := s.bulkBodies.decode(buf.Bytes())
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}

	q := segQuery{top: 50}
	if req.Top != nil {
		if *req.Top < 1 {
			s.writeErr(w, http.StatusBadRequest, "bad top %d", *req.Top)
			return
		}
		q.top = *req.Top
	}
	if isPlan {
		if len(req.PipeIDs) > 0 {
			s.writeErr(w, http.StatusBadRequest, "pipe_ids are not supported on /api/bulk/plan")
			return
		}
		if q.cm, q.b, err = planParams(req.BudgetKM, req.MaxPipes, req.InspectionPerKM, req.FailureCost, req.MaxSpend); err != nil {
			s.writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		q.top = 0 // selects the plan (see segQuery)
	}
	model := req.Model
	if model == "" {
		model = s.defaultModel
	}
	if s.def.slot(model) == nil {
		s.writeErr(w, http.StatusBadRequest, "unknown model %q", model)
		return
	}

	// Segment list, in output order: named regions (request order), then
	// pipe IDs (request order); with neither, every shard in fan-out
	// order. Naming errors are still plain HTTP errors here — nothing
	// has streamed yet.
	if len(req.Regions) == 0 && len(req.PipeIDs) == 0 {
		for _, sh := range s.shards {
			sc.segs = append(sc.segs, bulkSeg{sh: sh})
		}
	} else {
		for _, reg := range req.Regions {
			sh, ok := s.byRegion[reg]
			if !ok {
				s.writeErr(w, http.StatusBadRequest, "unknown region %q", reg)
				return
			}
			sc.segs = append(sc.segs, bulkSeg{sh: sh})
		}
		for _, id := range req.PipeIDs {
			sh, row, ok := s.findPipe(nil, id)
			if !ok {
				s.writeErr(w, http.StatusNotFound, "unknown pipe %q", id)
				return
			}
			sc.segs = append(sc.segs, bulkSeg{sh: sh, pipeID: id, row: row})
		}
	}

	// Phase 1: serial resolution of every segment whose model is
	// published.
	var miss []int
	for i := range sc.segs {
		seg := &sc.segs[i]
		tm := seg.sh.slot(model).snap.Load()
		if tm == nil {
			seg.ready = make(chan struct{})
			miss = append(miss, i)
			continue
		}
		s.metrics.sfCached.Inc()
		s.resolveSeg(seg, tm, nil, model, q)
	}

	// Phase 2: segments that must train first fan out. Each body closes
	// its segment's ready channel as its final touch of shared state, so
	// once phase 3 has observed every channel, nothing still references
	// the scratch.
	if len(miss) > 0 {
		ctx := r.Context()
		go s.pool.ForEachDynamic(len(miss), func(i int) {
			seg := &sc.segs[miss[i]]
			tm, err := s.getShard(ctx, seg.sh, model)
			s.resolveSeg(seg, tm, err, model, q)
			close(seg.ready)
		})
	}

	// Phase 3: ordered streaming writer. A client write failure stops
	// writing but keeps draining ready channels — the scratch cannot be
	// recycled while phase-2 segments are in flight.
	h := w.Header()
	h["Content-Type"] = ndjsonCT
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	dead := false
	line := sc.line
	for i := range sc.segs {
		seg := &sc.segs[i]
		if seg.ready != nil {
			<-seg.ready
		}
		if dead {
			continue
		}
		line = s.appendBulkLine(line[:0], sc, seg, model, q)
		if _, err := w.Write(line); err != nil {
			s.log.Printf("serve: bulk write: %v", err)
			dead = true
			continue
		}
		s.metrics.bulkSegments.Inc()
		if flusher != nil {
			flusher.Flush()
		}
	}
	sc.line = line
}

// resolveSeg settles one segment off its model snapshot: pipe segments
// render straight off tm, ranking segments clamp their entry count and
// plan segments take their snapshot's plan prefix. A training failure
// (err) or a resolver failure becomes the segment's error line.
func (s *Server) resolveSeg(seg *bulkSeg, tm *modelSnapshot, err error, model string, q segQuery) {
	if err == nil {
		seg.tm = tm
		switch {
		case seg.pipeID != "":
			return
		case q.top > 0:
			seg.rank, _, err = tm.rankPrefix(q.top)
		default:
			seg.px, _, err = tm.prefixFor(model, q.cm, s.metrics.planPrefixBuilds)
		}
	}
	if err != nil {
		seg.errMsg = err.Error()
		s.metrics.bulkSegErrs.Inc()
	}
}

// appendBulkLine renders one NDJSON line. A region line splices the
// single-call body (minus its trailing newline) with its ETag: the
// snapshot's for a ranking, the body hash for a plan, so the payload is
// byte-identical to the standalone endpoint's response.
func (s *Server) appendBulkLine(line []byte, sc *reqScratch, seg *bulkSeg, model string, q segQuery) []byte {
	if seg.pipeID != "" {
		return s.appendPipeLine(line, seg, model)
	}
	line = append(line, `{"region":`...)
	line = writeJSONString(line, seg.sh.region)
	line = append(line, `,"model":`...)
	line = writeJSONString(line, model)
	if seg.errMsg == "" && seg.px != nil {
		body, _, _, err := sc.planBody(seg.px, model, q.b, nil)
		if err == nil {
			line = appendBodyETag(append(line, `,"etag":`...), fnv64a(body))
			line = append(append(line, `,"plan":`...), body[:len(body)-1]...) // minus its newline
			return append(line, '}', '\n')
		}
		seg.errMsg = err.Error()
		s.metrics.bulkSegErrs.Inc()
	}
	if seg.errMsg != "" {
		line = append(line, `,"error":`...)
		line = writeJSONString(line, seg.errMsg)
		return append(line, '}', '\n')
	}
	// The snapshot ETag is already a quoted strong validator, so it is
	// spliced raw as a JSON string.
	line = append(append(line, `,"etag":`...), seg.tm.etag...)
	line = append(append(line, `,"ranking":`...), seg.rank...)
	return append(line, ']', '}', '\n')
}

// appendPipeLine renders one per-pipe line off the snapshot's
// registry-row ranks: two array reads, no scan, no encoder.
func (s *Server) appendPipeLine(line []byte, seg *bulkSeg, model string) []byte {
	line = append(line, `{"pipe_id":`...)
	line = writeJSONString(line, seg.pipeID)
	line = append(line, `,"region":`...)
	line = writeJSONString(line, seg.sh.region)
	line = append(line, `,"model":`...)
	line = writeJSONString(line, model)
	errMsg := seg.errMsg
	if errMsg == "" {
		if e := seg.tm.entryOf(seg.row); e != nil {
			line = append(line, `,"rank":`...)
			line = strconv.AppendInt(line, int64(e.Rank), 10)
			line = append(line, `,"score":`...)
			line = writeJSONFloat(line, e.Score)
			// Matches the single ranking's omitempty rendering: present
			// only when calibrated and non-zero.
			if seg.tm.calibrator != nil && e.FailProb != 0 {
				line = append(line, `,"fail_prob":`...)
				line = writeJSONFloat(line, e.FailProb)
			}
			return append(line, '}', '\n')
		}
		errMsg = "pipe has no rank under this model"
		s.metrics.bulkSegErrs.Inc()
	}
	line = append(line, `,"error":`...)
	line = writeJSONString(line, errMsg)
	return append(line, '}', '\n')
}
