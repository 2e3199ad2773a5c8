package serve

// Model snapshots: the immutable serving view built once when a training
// run completes. Publish computes what every read shares — the ranked
// entry list with calibrated probabilities (one Order sort), each
// registry row's rank, the plan candidate slice, the test-year scores
// and the content ETag. What only some reads need — the encoded ranking
// body and each cost model's plan prefix — is built by the first read
// that asks for it.
//
// Invariant: a *modelSnapshot and everything reachable from it is
// read-only after newModelSnapshot returns — with two internally
// synchronized exceptions: the ranking body, encoded as far as reads
// have asked for it, and planMemo, a sync.Map of plan prefixes keyed by
// cost model, which plan reads fill on first use (the default cost
// model's included; a snapshot nobody plans against builds none). Each
// encoded ranking prefix and each plan prefix is itself immutable once
// built.
// Handlers may share one snapshot across any number of goroutines; the
// only other mutable state is the shard's per-model slot that points at
// the published snapshot (see shard.go).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/plan"
)

// modelSnapshot is one trained model frozen for serving.
type modelSnapshot struct {
	ranking    *pipefail.Ranking
	calibrator core.Calibrator
	fitSeconds float64

	// auc and det1 are the ranking's test-year AUC and detection at 1 %
	// of pipes, computed once at publish (see status).
	auc, det1 float64

	// entries is the full ranking in rank order (score descending, ties
	// by ranking row) with FailProb calibrated once; handleRanking serves
	// entries[:top] directly.
	entries []rankedPipe

	// rank is the ranking body encoded so far, nil before the first
	// ranking read (see rankPrefix); rankMu serializes its extensions.
	// Encoding on read keeps it off the publish path, out of memory for
	// snapshots nobody reads, and a small top from paying for the whole
	// ranking.
	rankMu sync.Mutex
	rank   atomic.Pointer[rankBody]

	// rankOf maps a registry row to its 1-based rank, 0 for a pipe the
	// ranking does not hold (laid after the test year), so a pipe lookup
	// is two array reads (see entryOf).
	rankOf []int32

	// cands is the prebuilt plan.Candidate slice in ranking row order —
	// the raw input both plan.Greedy and plan.BuildPrefix consume.
	// Present only when the model calibrated.
	cands []plan.Candidate

	// planMemo memoizes plan prefixes keyed by the plan.CostModel value,
	// each built on the snapshot's first plan read at that cost model.
	// The default cost model is always admitted; the others are bounded
	// at planMemoMax per snapshot, and past that rebuild per request
	// (a few ms) instead of growing memory on client-chosen prices.
	planMemo  sync.Map
	planMemoN atomic.Int32

	// etag is the strong HTTP validator (quoted, as sent on the wire;
	// etagHdr as a header value) derived from everything the served bytes
	// depend on (see rankingETag); re-training the same data reproduces it.
	etag    string
	etagHdr []string

	// eventSeq is the shard's live-event sequence this snapshot trained
	// at (0 = base network only, -1 = restored from disk at an unknown
	// seq). The scheduler treats a snapshot whose shard ingest seq has
	// advanced past it as stale; nothing else makes a snapshot stale.
	eventSeq int64
}

// planMemoMax bounds the distinct non-default cost models memoized per
// snapshot.
const planMemoMax = 16

// defaultCostModel is the cost model used when a plan request carries no
// explicit pricing.
var defaultCostModel = plan.CostModel{
	InspectionPerKM: defaultInspectionPerKM,
	FailureCost:     defaultFailureCost,
}

// prefixFor returns the plan prefix for cm, building and memoizing it on
// first use. builds counts actual builds (the serve.plan.prefix_builds
// metric). The status accompanies a non-nil error: 409 for a model
// without a calibrator, 400 for the plan validation errors plan.Greedy
// would report for the same inputs.
func (tm *modelSnapshot) prefixFor(model string, cm plan.CostModel, builds *obs.Counter) (*planPrefix, int, error) {
	if tm.calibrator == nil {
		return nil, http.StatusConflict, fmt.Errorf("model %q has no calibrator; cannot price a plan", model)
	}
	if px, ok := tm.planMemo.Load(cm); ok {
		return px.(*planPrefix), 0, nil
	}
	builds.Inc()
	px, err := newPlanPrefix(tm.cands, cm)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if cm == defaultCostModel {
		tm.planMemo.Store(cm, px)
	} else if tm.planMemoN.Load() < planMemoMax {
		if _, loaded := tm.planMemo.LoadOrStore(cm, px); !loaded {
			tm.planMemoN.Add(1)
		}
	}
	return px, 0, nil
}

// newModelSnapshot freezes a trained model; pipes is the region's
// registry size. calibrator may be nil (plans are refused for the model,
// rankings omit fail_prob); everything else is mandatory.
func newModelSnapshot(name string, ranking *pipefail.Ranking, pipes int, calibrator core.Calibrator, fitSeconds float64) *modelSnapshot {
	tm := &modelSnapshot{
		ranking:    ranking,
		calibrator: calibrator,
		fitSeconds: fitSeconds,
		auc:        ranking.AUC(),
		det1:       ranking.DetectionAt(0.01),
	}

	var probs []float64
	if calibrator != nil {
		probs = calibrator.ProbAll(ranking.Scores, nil)
		tm.cands = make([]plan.Candidate, ranking.Len())
		for i, id := range ranking.PipeIDs {
			tm.cands[i] = plan.Candidate{
				ID:       id,
				FailProb: probs[i],
				LengthM:  ranking.LengthM[i],
			}
		}
	}
	tm.etag = rankingETag(name, ranking, probs)
	tm.etagHdr = []string{tm.etag}

	order := eval.Order(ranking.Scores)
	tm.entries = make([]rankedPipe, len(order))
	tm.rankOf = make([]int32, pipes)
	for i, row := range order {
		e := rankedPipe{Rank: i + 1, PipeID: ranking.PipeIDs[row], Score: ranking.Scores[row]}
		if probs != nil {
			e.FailProb = probs[row]
		}
		tm.entries[i] = e
		tm.rankOf[ranking.Rows[row]] = int32(i + 1)
	}
	return tm
}

// rankBody is a ranking's first len(end)-1 entries encoded: top=k
// serves body[:end[k]] and listClose, with Content-Length lens[k]. done
// marks an encoding that can grow no further: it holds every entry, or
// every entry before the first with a score or probability JSON cannot
// encode.
type rankBody struct {
	encodedList
	lens []string
	done bool
}

// rankPrefix returns the top=top ranking body up to its closing
// listClose, clamped to the ranking length, and its Content-Length
// header value, or an error when the body would reach an entry JSON
// cannot encode (a 500). A read that needs entries nobody encoded yet
// extends the encoding to at least twice its length, so a small top
// pays for its own entries and the whole ranking is encoded about twice
// at most.
func (tm *modelSnapshot) rankPrefix(top int) ([]byte, []string, error) {
	k := min(top, len(tm.entries))
	rb := tm.rank.Load()
	if rb == nil || k >= len(rb.end) && !rb.done {
		rb = tm.encodeRanking(k)
	}
	if k >= len(rb.end) {
		return nil, nil, errors.New("encoding ranking failed")
	}
	return rb.body[:rb.end[k]], rb.lens[k : k+1 : k+1], nil
}

// encodeRanking extends the encoded ranking to hold at least k entries
// where it can, and publishes the longer encoding.
func (tm *modelSnapshot) encodeRanking(k int) *rankBody {
	tm.rankMu.Lock()
	defer tm.rankMu.Unlock()
	rb := rankBody{encodedList: emptyList}
	if prev := tm.rank.Load(); prev != nil {
		if k < len(prev.end) || prev.done {
			return prev
		}
		rb = *prev
	}
	n := min(max(k, 2*(len(rb.end)-1)), len(tm.entries))
	list, ok := rb.extend(n, 96*(n+1-len(rb.end)), tm.appendEntry)
	next := &rankBody{list, list.appendLengths(rb.lens), !ok || n == len(tm.entries)}
	tm.rank.Store(next)
	return next
}

// appendEntry appends entry i of the ranking body, reporting false for
// a score or probability JSON cannot encode.
func (tm *modelSnapshot) appendEntry(dst []byte, i int) ([]byte, bool) {
	e := &tm.entries[i]
	if !finite(e.Score) || !finite(e.FailProb) {
		return dst, false
	}
	dst = strconv.AppendInt(append(dst, `{"rank":`...), int64(e.Rank), 10)
	dst = writeJSONString(append(dst, `,"pipe_id":`...), e.PipeID)
	dst = writeJSONFloat(append(dst, `,"score":`...), e.Score)
	if e.FailProb != 0 { // omitempty
		dst = writeJSONFloat(append(dst, `,"fail_prob":`...), e.FailProb)
	}
	return append(dst, '}'), true
}

// inherit gives tm the ranking old has encoded when the two serve the
// same bytes (equal ETags), so a bit-identical rebuild does not encode
// its ranking again.
func (tm *modelSnapshot) inherit(old *modelSnapshot) {
	if old != nil && old != tm && old.etag == tm.etag {
		tm.rank.CompareAndSwap(nil, old.rank.Load())
	}
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// entryOf returns the ranked entry of the pipe at registry row, nil when
// the ranking does not hold the pipe. The entry aliases the snapshot and
// must not be mutated.
func (tm *modelSnapshot) entryOf(row int) *rankedPipe {
	if r := tm.rankOf[row]; r > 0 {
		return &tm.entries[r-1]
	}
	return nil
}

// rankingETag hashes the model name and, per ranking row, the score's
// bit pattern, the registry row and the calibrated probability (probs is
// nil without a calibrator) into a quoted strong validator. Those
// determine every served ranking and plan byte for a fixed network, so
// equal tags imply equal representations.
func rankingETag(name string, r *pipefail.Ranking, probs []float64) string {
	h := fnv.New64a()
	h.Write([]byte(name))
	var buf [24]byte
	for i, s := range r.Scores {
		b := binary.LittleEndian.AppendUint64(buf[:0], math.Float64bits(s))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Rows[i]))
		if probs != nil {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(probs[i]))
		}
		h.Write(b)
	}
	return fmt.Sprintf(`"r-%016x"`, h.Sum64())
}
