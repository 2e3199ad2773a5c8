package serve

// Model snapshots: the immutable, fully materialized serving view built
// once when a training run completes. Everything a read handler needs is
// precomputed here — the ranked entry list with calibrated probabilities,
// the plan candidate slice, the pipe-ID index and the content ETag — so
// the request path is slicing and encoding, never recomputation.
//
// Invariant: a *modelSnapshot and everything reachable from it is
// read-only after newModelSnapshot returns — with one internally
// synchronized exception: planMemo, a bounded sync.Map of plan.Prefix
// structures keyed by cost model, which handlers fill lazily for
// non-default cost models. Each Prefix is itself immutable once built.
// Handlers may share one snapshot across any number of goroutines; the
// only other mutable state is the Server's copy-on-write map of name →
// snapshot (see Server.publish).

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
)

// modelSnapshot is one trained model frozen for serving.
type modelSnapshot struct {
	model      pipefail.Model
	ranking    *pipefail.Ranking
	calibrator core.Calibrator
	fitSeconds float64

	// rankIdx maps pipe ID → row in ranking, built once at train time so
	// per-request handlers never scan PipeIDs.
	rankIdx map[string]int

	// entries is the full ranking in rank order (score descending, ties
	// by row) with FailProb calibrated once; handleRanking serves
	// entries[:top] directly.
	entries []rankedPipe

	// rankOf maps a ranking row (the rankIdx value space) to its
	// 1-based rank, so the bulk per-pipe path answers "what rank is
	// this pipe" with two array reads instead of a scan.
	rankOf []int32

	// cands is the prebuilt plan.Candidate slice in ranking row order —
	// the raw input both plan.Greedy and plan.BuildPrefix consume.
	// Present only when the model calibrated.
	cands []plan.Candidate

	// planDefault is the prefix structure for the default cost model —
	// the overwhelmingly common case — built once at snapshot time so the
	// first /api/plan request already binary-searches instead of sorting.
	// Nil when the model has no calibrator or the candidates fail plan
	// validation (the per-request path reports the error).
	planDefault *plan.Prefix

	// planMemo lazily memoizes prefixes for non-default cost models,
	// keyed by the plan.CostModel value. Bounded at planMemoMax distinct
	// cost models per snapshot; past that, extra cost models rebuild per
	// request (still ~ms, the pre-PR cost) instead of growing memory on
	// attacker-chosen parameters.
	planMemo  sync.Map
	planMemoN atomic.Int32

	// etag is the strong HTTP validator (quoted, as sent on the wire)
	// derived from the model name and score bytes: any change to the
	// ranking changes the tag, and re-training the same data reproduces it.
	etag string

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
// explicit pricing; its prefix is prebuilt into every snapshot.
var defaultCostModel = plan.CostModel{
	InspectionPerKM: defaultInspectionPerKM,
	FailureCost:     defaultFailureCost,
}

// prefixFor returns the plan prefix structure for cm, building and
// memoizing it on first use. builds counts actual BuildPrefix runs (the
// serve.plan.prefix_builds metric). Errors are plan validation errors —
// exactly what plan.Greedy would report for the same inputs.
func (tm *modelSnapshot) prefixFor(cm plan.CostModel, builds *obs.Counter) (*plan.Prefix, error) {
	if cm == defaultCostModel && tm.planDefault != nil {
		return tm.planDefault, nil
	}
	if px, ok := tm.planMemo.Load(cm); ok {
		return px.(*plan.Prefix), nil
	}
	builds.Inc()
	px, err := plan.BuildPrefix(tm.cands, cm)
	if err != nil {
		return nil, err
	}
	if tm.planMemoN.Load() < planMemoMax {
		if _, loaded := tm.planMemo.LoadOrStore(cm, px); !loaded {
			tm.planMemoN.Add(1)
		}
	}
	return px, nil
}

// newModelSnapshot freezes a trained model. calibrator may be nil (plans
// are refused for the model, rankings omit fail_prob); everything else
// is mandatory.
func newModelSnapshot(name string, m pipefail.Model, ranking *pipefail.Ranking, calibrator core.Calibrator, fitSeconds float64) *modelSnapshot {
	tm := &modelSnapshot{
		model:      m,
		ranking:    ranking,
		calibrator: calibrator,
		fitSeconds: fitSeconds,
		rankIdx:    make(map[string]int, ranking.Len()),
		etag:       rankingETag(name, ranking.Scores),
	}
	for i, id := range ranking.PipeIDs {
		tm.rankIdx[id] = i
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
		// Pay the density sort once at publish time for the default cost
		// model. A build error (out-of-range probability, zero length) is
		// deliberately not fatal: planDefault stays nil and the request
		// path rebuilds per call, surfacing the same 400 Greedy would.
		if px, err := plan.BuildPrefix(tm.cands, defaultCostModel); err == nil {
			tm.planDefault = px
		}
	}

	ids := ranking.TopIDs(ranking.Len())
	tm.entries = make([]rankedPipe, len(ids))
	tm.rankOf = make([]int32, ranking.Len())
	for i, id := range ids {
		row := tm.rankIdx[id]
		e := rankedPipe{Rank: i + 1, PipeID: id, Score: ranking.Scores[row]}
		if probs != nil {
			e.FailProb = probs[row]
		}
		tm.entries[i] = e
		tm.rankOf[row] = int32(i + 1)
	}
	return tm
}

// topEntries returns the highest-risk prefix of the precomputed ranking,
// clamping top to the ranking length. The returned slice aliases the
// snapshot and must not be mutated.
func (tm *modelSnapshot) topEntries(top int) []rankedPipe {
	if top > len(tm.entries) {
		top = len(tm.entries)
	}
	if top < 0 {
		top = 0
	}
	return tm.entries[:top]
}

// rankingETag hashes the model name and every score's bit pattern into a
// quoted strong validator. Scores determine the served ranking bytes
// (order, probabilities and IDs all derive from them for a fixed
// network), so equal tags imply equal representations.
func rankingETag(name string, scores []float64) string {
	h := fnv.New64a()
	h.Write([]byte(name))
	var buf [8]byte
	for _, s := range scores {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], h.Sum64())
	const hex = "0123456789abcdef"
	out := make([]byte, 0, 20)
	out = append(out, '"', 'r', '-')
	for _, b := range buf {
		out = append(out, hex[b>>4], hex[b&0xf])
	}
	out = append(out, '"')
	return string(out)
}
