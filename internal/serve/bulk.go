package serve

// Bulk endpoints: POST /api/bulk/rank and POST /api/bulk/plan take many
// regions (and, for rank, individual pipe IDs) in one request and
// stream one NDJSON line per segment back, flushed as each resolves.
//
// The design goal is that bulk is a framing layer, never a second
// implementation: region segments resolve through snapshotEntry, the
// same resolver the single-region handlers use, so a bulk line's
// payload is byte-identical to the corresponding single call's body.
// Resolution runs in three phases:
//
//  1. serial: every segment whose model is published resolves inline
//     through snapshotEntry (a cache hit, or a fill-then-Add on a miss)
//     — the all-cached path touches no goroutines, channels or heap;
//  2. fan-out: segments whose model must train first run getShard
//     concurrently on the server's worker pool (joining the shard's
//     training singleflight), then resolve through snapshotEntry, each
//     closing a ready channel;
//  3. ordered writer: lines stream in request order, waiting on each
//     segment's ready channel, flushing per line — so early segments
//     reach the client while late ones still train.
//
// Failures after the stream starts cannot become HTTP errors (the 200
// is gone); they become per-segment {"error": ...} lines instead.

import (
	"bytes"
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/respcache"
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

// bulkSeg is one output line in flight: a region segment (pipeID empty)
// or a per-pipe segment. ready is nil when phase 1 resolved the segment
// inline; otherwise the training fan-out closes it once tm/entry/errMsg
// are final.
type bulkSeg struct {
	sh     *shard
	pipeID string // points into the memoized request; empty for region segments
	tm     *modelSnapshot
	entry  respcache.Entry
	errMsg string
	ready  chan struct{}
}

// bulkScratch bundles the per-request scratch state so the steady state
// recycles one pool object instead of two slices.
type bulkScratch struct {
	segs []bulkSeg
	line []byte
}

// release drops references into the request and snapshots while keeping
// slice capacity for the next request.
func (sc *bulkScratch) release() {
	for i := range sc.segs {
		sc.segs[i] = bulkSeg{}
	}
	sc.segs = sc.segs[:0]
}

var scratchPool = sync.Pool{New: func() any { return new(bulkScratch) }}

func (s *Server) handleBulkRank(w http.ResponseWriter, r *http.Request) {
	s.serveBulk(w, r, false)
}

func (s *Server) handleBulkPlan(w http.ResponseWriter, r *http.Request) {
	s.serveBulk(w, r, true)
}

func (s *Server) serveBulk(w http.ResponseWriter, r *http.Request, isPlan bool) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	sc := scratchPool.Get().(*bulkScratch)
	s.streamBulk(w, r, buf, sc, isPlan)
	// streamBulk has waited out every phase-2 segment before returning,
	// so nothing concurrent still references the segments.
	sc.release()
	scratchPool.Put(sc)
	if buf.Cap() <= bufPoolMax {
		bufPool.Put(buf)
	}
}

func (s *Server) streamBulk(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer, sc *bulkScratch, isPlan bool) {
	if !s.readBody(w, r, buf) {
		return
	}
	req, err := s.bulkBodies.decode(buf.Bytes())
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}

	q := entryQuery{top: 50}
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
		q.top = 0 // selects the plan (see entryQuery)
	}
	model := req.Model
	if model == "" {
		model = s.defaultModel
	}
	// Published-on-def is the allocation-free common case; knownModel
	// (which walks the registry) only runs for models nobody trained yet.
	if _, ok := (*s.def.models.Load())[model]; !ok && !knownModel(model) {
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
			sh, _, ok := s.findPipe(nil, id)
			if !ok {
				s.writeErr(w, http.StatusNotFound, "unknown pipe %q", id)
				return
			}
			sc.segs = append(sc.segs, bulkSeg{sh: sh, pipeID: id})
		}
	}

	// Phase 1: serial resolution of every segment whose model is
	// published.
	var miss []int
	for i := range sc.segs {
		seg := &sc.segs[i]
		tm, ok := (*seg.sh.models.Load())[model]
		if !ok {
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
		line = s.appendBulkLine(line[:0], seg, model, isPlan)
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
// render straight off tm, region segments take their body from
// snapshotEntry. A training failure (err) or a resolver failure becomes
// the segment's error line.
func (s *Server) resolveSeg(seg *bulkSeg, tm *modelSnapshot, err error, model string, q entryQuery) {
	if err == nil {
		seg.tm = tm
		if seg.pipeID != "" {
			return
		}
		seg.entry, _, err = s.snapshotEntry(seg.sh, tm, model, q)
	}
	if err != nil {
		seg.errMsg = err.Error()
		s.metrics.bulkSegErrs.Inc()
	}
}

// appendBulkLine renders one NDJSON line. Region lines splice the
// cached single-call body verbatim (minus its trailing newline), so the
// payload is byte-identical to the standalone endpoint's response.
func (s *Server) appendBulkLine(line []byte, seg *bulkSeg, model string, isPlan bool) []byte {
	if seg.pipeID != "" {
		return s.appendPipeLine(line, seg, model)
	}
	line = append(line, `{"region":`...)
	line = writeJSONString(line, seg.sh.region)
	line = append(line, `,"model":`...)
	line = writeJSONString(line, model)
	if seg.errMsg != "" {
		line = append(line, `,"error":`...)
		line = writeJSONString(line, seg.errMsg)
		return append(line, '}', '\n')
	}
	// The stored ETag is already a quoted strong validator, so it is
	// spliced raw as a JSON string.
	line = append(line, `,"etag":`...)
	line = append(line, seg.entry.ETag...)
	if isPlan {
		line = append(line, `,"plan":`...)
	} else {
		line = append(line, `,"ranking":`...)
	}
	line = append(line, trimNL(seg.entry.Body)...)
	return append(line, '}', '\n')
}

// appendPipeLine renders one per-pipe line off the snapshot's rank
// index: two array reads, no scan, no encoder.
func (s *Server) appendPipeLine(line []byte, seg *bulkSeg, model string) []byte {
	line = append(line, `{"pipe_id":`...)
	line = writeJSONString(line, seg.pipeID)
	line = append(line, `,"region":`...)
	line = writeJSONString(line, seg.sh.region)
	line = append(line, `,"model":`...)
	line = writeJSONString(line, model)
	errMsg := seg.errMsg
	if errMsg == "" {
		if row, ok := seg.tm.rankIdx[seg.pipeID]; ok {
			e := &seg.tm.entries[seg.tm.rankOf[row]-1]
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

// trimNL strips the trailing newline json.Encoder leaves on cached
// bodies so they splice mid-object.
func trimNL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		return b[:n-1]
	}
	return b
}

const hexDigits = "0123456789abcdef"

// writeJSONString appends s as a JSON string, matching encoding/json's
// default escaping (including the HTML-safe <, >, & escapes) so
// hand-built lines compare byte-equal to stdlib output. Inputs here are
// region names, model names, pipe IDs and error texts — all ASCII, so
// the stdlib's invalid-UTF-8 and U+2028/U+2029 handling is not
// replicated.
func writeJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// writeJSONFloat appends f exactly as encoding/json renders a float64:
// shortest representation, 'f' form except for very small/large
// magnitudes, which use 'e' form with a cleaned-up exponent.
func writeJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
