package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/feature"
)

// RiskMap is the data behind the paper's risk-map figure: every pipe with
// its location, its predicted risk decile, and whether it actually failed
// in the test year.
type RiskMap struct {
	Region string
	Model  string
	Pipes  []RiskMapPipe
	// TopDecileHit is the fraction of test-year failures that fall inside
	// the predicted top decile — the figure's headline message.
	TopDecileHit float64
}

// RiskMapPipe is one pipe on the map.
type RiskMapPipe struct {
	ID     string
	X, Y   float64
	Decile int // 0 = highest predicted risk, 9 = lowest
	Failed bool
}

// F4RiskMap ranks one region's pipes with the first configured model and
// returns the map data.
func F4RiskMap(opts Options, region string) (*RiskMap, error) {
	opts = opts.withDefaults()
	reg := NewRegistry(opts.Seed, opts.ESGenerations)
	net, _, err := GenerateRegion(region, opts)
	if err != nil {
		return nil, err
	}
	split, err := dataset.PaperSplit(net)
	if err != nil {
		return nil, err
	}
	model := opts.Models[0]
	evals, err := EvaluateSplit(net, split, reg, []string{model}, feature.Groups{})
	if err != nil {
		return nil, err
	}
	e := evals[0]

	// Deciles from the rank order. The test set has one row per pipe laid
	// before the test year, aligned with net.Pipes() via PipeIdx — here we
	// recover that alignment through the rank order of Scores.
	order := eval.Order(e.Scores)
	decile := make([]int, len(e.Scores))
	for rank, idx := range order {
		decile[idx] = rank * 10 / len(order)
	}

	rm := &RiskMap{Region: region, Model: model}
	pipes := net.Pipes()
	// Rebuild the test-row → pipe mapping: rows were emitted in pipe order
	// for pipes with LaidYear <= test year.
	row := 0
	failTotal, failTop := 0, 0
	for i := range pipes {
		if pipes[i].LaidYear > split.TestYear {
			continue
		}
		failed := e.Labels[row]
		d := decile[row]
		rm.Pipes = append(rm.Pipes, RiskMapPipe{
			ID: pipes[i].ID, X: pipes[i].X, Y: pipes[i].Y,
			Decile: d, Failed: failed,
		})
		if failed {
			failTotal++
			if d == 0 {
				failTop++
			}
		}
		row++
	}
	if failTotal > 0 {
		rm.TopDecileHit = float64(failTop) / float64(failTotal)
	}
	return rm, nil
}

// WriteSVG renders the risk map as a standalone SVG: grey dots for low-risk
// pipes, a red-to-orange ramp for the top deciles, and black stars (crosses)
// for the pipes that actually failed in the test year.
func (rm *RiskMap) WriteSVG(w io.Writer, sizePx int) error {
	if sizePx <= 0 {
		sizePx = 800
	}
	maxC := 1.0
	for _, p := range rm.Pipes {
		maxC = math.Max(maxC, math.Max(p.X, p.Y))
	}
	scale := float64(sizePx-40) / maxC
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pr(`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		sizePx, sizePx, sizePx, sizePx)
	pr(`<rect width="100%%" height="100%%" fill="white"/>` + "\n")
	pr(`<text x="20" y="24" font-family="sans-serif" font-size="16">Risk map region %s (%s): red = top decile, stars = test-year failures (top-decile hit %.0f%%)</text>`+"\n",
		rm.Region, rm.Model, 100*rm.TopDecileHit)
	color := func(d int) string {
		switch d {
		case 0:
			return "#d62728" // red: top 10 %
		case 1:
			return "#ff7f0e" // orange: next 10 %
		case 2:
			return "#ffbb78"
		default:
			return "#c7c7c7"
		}
	}
	for _, p := range rm.Pipes {
		x := 20 + p.X*scale
		y := 20 + p.Y*scale
		pr(`<circle cx="%.1f" cy="%.1f" r="2" fill="%s"/>`+"\n", x, y, color(p.Decile))
	}
	// Failures drawn on top.
	for _, p := range rm.Pipes {
		if !p.Failed {
			continue
		}
		x := 20 + p.X*scale
		y := 20 + p.Y*scale
		pr(`<path d="M %.1f %.1f l 4 4 m -4 0 l 4 -4" stroke="black" stroke-width="1.5" fill="none"/>`+"\n",
			x-2, y-2)
	}
	pr("</svg>\n")
	return err
}
