// Package eval implements the evaluation harness of the reproduction: AUC,
// ROC and detection (CAP) curves, detection at inspection budgets, partial
// areas, and the table rendering used by the experiment runners.
//
// The central industrial metric is the detection curve: rank all pipes by
// predicted risk, inspect the top x %, and count the fraction of the test
// year's failures caught. The paper's real-world constraint is x = 1 %.
package eval

import (
	"fmt"
	"math"
)

// AUC returns the empirical area under the ROC curve of scores against
// labels, computed with the rank-statistic formulation (ties counted half)
// in O(n log n). Degenerate single-class inputs return 0.5. This is the
// one-shot convenience wrapper; callers on hot loops hold an AUCKernel
// (see kernel.go) to amortize the sort scratch.
func AUC(scores []float64, labels []bool) float64 {
	var k AUCKernel
	return k.Compute(scores, labels)
}

// CurvePoint is one point of a detection or ROC curve.
type CurvePoint struct {
	// X is the inspected fraction (detection curve) or the false-positive
	// rate (ROC).
	X float64
	// Y is the detected fraction (detection) or true-positive rate (ROC).
	Y float64
}

// rankOrder returns indices sorted by score descending, breaking ties by
// original index for determinism (a one-shot Ranker; see kernel.go).
func rankOrder(scores []float64) []int {
	var r Ranker
	return r.Order(scores)
}

// DetectionCurve returns the cumulative detection curve: after inspecting
// the top-k ranked pipes (x = k/n), the fraction of failed pipes caught
// (y). The curve is sub-sampled to at most points+1 points including the
// endpoints. It panics on length mismatch; a label set with no positives
// yields a flat zero curve.
func DetectionCurve(scores []float64, labels []bool, points int) []CurvePoint {
	if len(scores) != len(labels) {
		panic(fmt.Sprintf("eval: DetectionCurve length mismatch %d vs %d", len(scores), len(labels)))
	}
	if points < 1 {
		points = 100
	}
	n := len(scores)
	if n == 0 {
		return nil
	}
	totalPos := 0
	for _, v := range labels {
		if v {
			totalPos++
		}
	}
	order := rankOrder(scores)
	out := make([]CurvePoint, 0, points+1)
	out = append(out, CurvePoint{0, 0})
	caught := 0
	next := 1
	for k, i := range order {
		if labels[i] {
			caught++
		}
		// Emit at evenly spaced inspected fractions.
		for next <= points && (k+1)*points >= next*n {
			x := float64(next) / float64(points)
			y := 0.0
			if totalPos > 0 {
				y = float64(caught) / float64(totalPos)
			}
			out = append(out, CurvePoint{x, y})
			next++
		}
	}
	return out
}

// DetectionAt returns the fraction of failed pipes caught when inspecting
// the top frac of pipes by score (frac in (0, 1]). Zero positives yield 0.
func DetectionAt(scores []float64, labels []bool, frac float64) float64 {
	if len(scores) != len(labels) {
		panic(fmt.Sprintf("eval: DetectionAt length mismatch %d vs %d", len(scores), len(labels)))
	}
	if frac <= 0 || frac > 1 {
		panic(fmt.Sprintf("eval: DetectionAt frac %v out of (0,1]", frac))
	}
	n := len(scores)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(frac * float64(n)))
	order := rankOrder(scores)
	totalPos, caught := 0, 0
	for _, v := range labels {
		if v {
			totalPos++
		}
	}
	if totalPos == 0 {
		return 0
	}
	for _, i := range order[:k] {
		if labels[i] {
			caught++
		}
	}
	return float64(caught) / float64(totalPos)
}

// DetectionAtLength returns the fraction of failed pipes caught when
// inspecting ranked pipes until frac of the total network length has been
// covered — the budget formulation utilities actually plan with, since
// inspection cost scales with length.
func DetectionAtLength(scores []float64, labels []bool, lengths []float64, frac float64) float64 {
	if len(scores) != len(labels) || len(scores) != len(lengths) {
		panic("eval: DetectionAtLength length mismatch")
	}
	if frac <= 0 || frac > 1 {
		panic(fmt.Sprintf("eval: DetectionAtLength frac %v out of (0,1]", frac))
	}
	total := 0.0
	totalPos := 0
	for i, v := range labels {
		total += lengths[i]
		if v {
			totalPos++
		}
	}
	if totalPos == 0 || total <= 0 {
		return 0
	}
	budget := frac * total
	used := 0.0
	caught := 0
	for _, i := range rankOrder(scores) {
		if used >= budget {
			break
		}
		used += lengths[i]
		if labels[i] {
			caught++
		}
	}
	return float64(caught) / float64(totalPos)
}

// PartialDetectionArea integrates the detection curve from 0 to frac of
// inspected pipes (trapezoidal over the exact step curve). The result is in
// [0, frac]; the paper's "AUC at 1 % inspected" column is this quantity.
// Reported values are often quoted in basis points (1e-4).
func PartialDetectionArea(scores []float64, labels []bool, frac float64) float64 {
	if len(scores) != len(labels) {
		panic("eval: PartialDetectionArea length mismatch")
	}
	if frac <= 0 || frac > 1 {
		panic(fmt.Sprintf("eval: PartialDetectionArea frac %v out of (0,1]", frac))
	}
	n := len(scores)
	if n == 0 {
		return 0
	}
	totalPos := 0
	for _, v := range labels {
		if v {
			totalPos++
		}
	}
	if totalPos == 0 {
		return 0
	}
	order := rankOrder(scores)
	kMax := frac * float64(n)
	area := 0.0
	caught := 0
	for k, i := range order {
		lo := float64(k)
		hi := float64(k + 1)
		if lo >= kMax {
			break
		}
		if hi > kMax {
			hi = kMax
		}
		// Detection level during (lo, hi] is caught-after-this-pipe for
		// the step at the pipe boundary; use the level after inspecting
		// pipe k (conservative step integration).
		if labels[i] {
			caught++
		}
		level := float64(caught) / float64(totalPos)
		area += level * (hi - lo) / float64(n)
	}
	return area
}

// ROCCurve returns the ROC curve sub-sampled to at most points+1 points.
func ROCCurve(scores []float64, labels []bool, points int) []CurvePoint {
	if len(scores) != len(labels) {
		panic("eval: ROCCurve length mismatch")
	}
	if points < 1 {
		points = 100
	}
	totalPos, totalNeg := 0, 0
	for _, v := range labels {
		if v {
			totalPos++
		} else {
			totalNeg++
		}
	}
	out := []CurvePoint{{0, 0}}
	if totalPos == 0 || totalNeg == 0 {
		return append(out, CurvePoint{1, 1})
	}
	tp, fp := 0, 0
	next := 1
	for _, i := range rankOrder(scores) {
		if labels[i] {
			tp++
		} else {
			fp++
		}
		for next <= points && fp*points >= next*totalNeg {
			out = append(out, CurvePoint{
				X: float64(fp) / float64(totalNeg),
				Y: float64(tp) / float64(totalPos),
			})
			next++
		}
	}
	if last := out[len(out)-1]; last.X != 1 || last.Y != 1 {
		out = append(out, CurvePoint{1, 1})
	}
	return out
}
