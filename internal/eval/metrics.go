// Package eval implements the evaluation harness of the reproduction: AUC,
// ROC and detection (CAP) curves, detection at inspection budgets, partial
// areas, and the table rendering used by the experiment runners.
//
// The central industrial metric is the detection curve: rank all pipes by
// predicted risk, inspect the top x %, and count the fraction of the test
// year's failures caught. The paper's real-world constraint is x = 1 %.
// Every ranking here, and every ranking the serve layer and the
// experiments order, comes from one sort: Order (score descending, ties
// by ascending index); TopK is its clamped prefix.
package eval

import (
	"fmt"
	"math"
)

// AUC returns the empirical area under the ROC curve of scores against
// labels, computed with the rank-statistic formulation (ties counted half)
// in O(P + N log P) for P positives and N negatives (see
// AUCKernel.Compute). Degenerate single-class inputs return 0.5. This is
// the one-shot convenience wrapper; callers on hot loops hold an
// AUCKernel (see kernel.go) to amortize the sort scratch.
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
	order := Order(scores)
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
	order := Order(scores)
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
	for _, i := range Order(scores) {
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
	order := Order(scores)
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
