package dataset

import (
	"fmt"
	"sort"
)

// CohortRow is one row of an exploratory cohort-statistics table: a slice
// of the network (by material, age band, diameter band, …) with its
// exposure and empirical failure rate.
type CohortRow struct {
	// Cohort labels the slice (e.g. "CICL", "age 40-49", "100-199mm").
	Cohort string
	// Pipes is the number of pipes ever in the cohort.
	Pipes int
	// PipeYears is the exposure: summed years each pipe spent in the
	// cohort inside the observation window.
	PipeYears float64
	// KMYears is the length-weighted exposure in kilometre-years.
	KMYears float64
	// Failures is the number of recorded failures attributed to the cohort.
	Failures int
	// RatePerPipeYear is Failures / PipeYears.
	RatePerPipeYear float64
	// RatePer100KMYear is Failures per 100 km-years, the unit the early
	// age-rate literature reports.
	RatePer100KMYear float64
}

func finishRow(r *CohortRow) {
	if r.PipeYears > 0 {
		r.RatePerPipeYear = float64(r.Failures) / r.PipeYears
	}
	if r.KMYears > 0 {
		r.RatePer100KMYear = float64(r.Failures) / r.KMYears * 100
	}
}

// activeYears returns the number of observed years pipe i existed.
func (c *Columns) activeYears(i int) float64 {
	from := max(int(c.Registry.LaidYear[i]), c.ObservedFrom)
	years := c.ObservedTo - from + 1
	if years < 0 {
		return 0
	}
	return float64(years)
}

// CohortByMaterial returns failure statistics per material, sorted by
// descending failure rate per pipe-year.
func (c *Columns) CohortByMaterial() []CohortRow {
	rows := map[Material]*CohortRow{}
	for i, m := range c.Registry.Material {
		r, ok := rows[m]
		if !ok {
			r = &CohortRow{Cohort: string(m)}
			rows[m] = r
		}
		y := c.activeYears(i)
		r.Pipes++
		r.PipeYears += y
		r.KMYears += y * c.Registry.LengthM[i] / 1000
		r.Failures += c.FailureCount(i, c.ObservedFrom, c.ObservedTo)
	}
	out := make([]CohortRow, 0, len(rows))
	for _, r := range rows {
		finishRow(r)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RatePerPipeYear != out[j].RatePerPipeYear {
			return out[i].RatePerPipeYear > out[j].RatePerPipeYear
		}
		return out[i].Cohort < out[j].Cohort
	})
	return out
}

// CohortByAgeBand returns failure statistics per pipe-age band of the
// given width (in years). Exposure and failures are attributed to the band
// the pipe was in during each observed year, so a pipe contributes to
// several bands over a long window.
func (c *Columns) CohortByAgeBand(bandYears int) ([]CohortRow, error) {
	if bandYears < 1 {
		return nil, fmt.Errorf("dataset: age band width %d must be >= 1", bandYears)
	}
	type acc struct {
		pipes     int
		pipeYears float64
		kmYears   float64
		failures  int
	}
	bands := map[int]*acc{}
	get := func(b int) *acc {
		a, ok := bands[b]
		if !ok {
			a = &acc{}
			bands[b] = a
		}
		return a
	}
	band := func(laid int32, year int) int { return max(year-int(laid), 0) / bandYears }
	laidYear := c.Registry.LaidYear
	for i, laid := range laidYear {
		// A pipe's band never decreases with the year, so it enters each
		// band it visits once.
		last := -1
		for year := max(int(laid), c.ObservedFrom); year <= c.ObservedTo; year++ {
			b := band(laid, year)
			a := get(b)
			if b != last {
				a.pipes++
				last = b
			}
			a.pipeYears++
			a.kmYears += c.Registry.LengthM[i] / 1000
		}
	}
	for e, pipe := range c.Events.Pipe {
		get(band(laidYear[pipe], int(c.Events.Year[e]))).failures++
	}
	keys := make([]int, 0, len(bands))
	for b := range bands {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	out := make([]CohortRow, 0, len(keys))
	for _, b := range keys {
		a := bands[b]
		r := CohortRow{
			Cohort:    fmt.Sprintf("age %d-%d", b*bandYears, (b+1)*bandYears-1),
			Pipes:     a.pipes,
			PipeYears: a.pipeYears,
			KMYears:   a.kmYears,
			Failures:  a.failures,
		}
		finishRow(&r)
		out = append(out, r)
	}
	return out, nil
}

// CohortByDiameterBand returns failure statistics per diameter band.
// bounds are the ascending band upper limits in mm; a final open-ended
// band is appended automatically.
func (c *Columns) CohortByDiameterBand(bounds []float64) ([]CohortRow, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("dataset: no diameter bounds")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("dataset: diameter bounds not ascending at %d", i)
		}
	}
	label := func(b int) string {
		if b == 0 {
			return fmt.Sprintf("<%.0fmm", bounds[0])
		}
		if b == len(bounds) {
			return fmt.Sprintf(">=%.0fmm", bounds[len(bounds)-1])
		}
		return fmt.Sprintf("%.0f-%.0fmm", bounds[b-1], bounds[b])
	}
	bandOf := func(d float64) int {
		for i, u := range bounds {
			if d < u {
				return i
			}
		}
		return len(bounds)
	}
	rows := make([]CohortRow, len(bounds)+1)
	for b := range rows {
		rows[b].Cohort = label(b)
	}
	for i, d := range c.Registry.DiameterMM {
		b := bandOf(d)
		y := c.activeYears(i)
		rows[b].Pipes++
		rows[b].PipeYears += y
		rows[b].KMYears += y * c.Registry.LengthM[i] / 1000
		rows[b].Failures += c.FailureCount(i, c.ObservedFrom, c.ObservedTo)
	}
	out := rows[:0]
	for _, r := range rows {
		if r.Pipes == 0 {
			continue
		}
		finishRow(&r)
		out = append(out, r)
	}
	return out, nil
}

// SegmentHotspot is a pipe segment with repeated failures — the strongest
// renewal signal a work-order log can give.
type SegmentHotspot struct {
	PipeID   string
	Segment  int
	Failures int
}

// SegmentHotspots returns segments with at least minFailures recorded
// failures, sorted by failure count descending (ties by pipe then segment).
func (c *Columns) SegmentHotspots(minFailures int) []SegmentHotspot {
	if minFailures < 1 {
		minFailures = 1
	}
	type key struct {
		pipe uint32
		seg  int32
	}
	counts := map[key]int{}
	for e, pipe := range c.Events.Pipe {
		counts[key{pipe, c.Events.Segment[e]}]++
	}
	var out []SegmentHotspot
	for k, n := range counts {
		if n >= minFailures {
			out = append(out, SegmentHotspot{PipeID: c.Registry.ID[k.pipe], Segment: int(k.seg), Failures: n})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Failures != out[b].Failures {
			return out[a].Failures > out[b].Failures
		}
		if out[a].PipeID != out[b].PipeID {
			return out[a].PipeID < out[b].PipeID
		}
		return out[a].Segment < out[b].Segment
	})
	return out
}
