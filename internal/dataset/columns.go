package dataset

import (
	"slices"
	"sort"
	"strings"
	"sync"
)

// PipeColumns is the registry as a struct of arrays; index i across every
// slice is one pipe (row i of the registry). Decoded string columns share
// backing: dictionary entries for the low-cardinality columns, one blob
// for the IDs.
type PipeColumns struct {
	ID              []string
	Class           []PipeClass
	Material        []Material
	Coating         []Coating
	DiameterMM      []float64
	LengthM         []float64
	LaidYear        []int32
	SoilCorrosivity []string
	SoilExpansivity []string
	SoilGeology     []string
	SoilMap         []string
	DistToTrafficM  []float64
	X               []float64
	Y               []float64
	Segments        []int32
}

// Append adds p as the last row.
func (c *PipeColumns) Append(p *Pipe) {
	c.ID = append(c.ID, p.ID)
	c.Class = append(c.Class, p.Class)
	c.Material = append(c.Material, p.Material)
	c.Coating = append(c.Coating, p.Coating)
	c.DiameterMM = append(c.DiameterMM, p.DiameterMM)
	c.LengthM = append(c.LengthM, p.LengthM)
	c.LaidYear = append(c.LaidYear, int32(p.LaidYear))
	c.SoilCorrosivity = append(c.SoilCorrosivity, p.SoilCorrosivity)
	c.SoilExpansivity = append(c.SoilExpansivity, p.SoilExpansivity)
	c.SoilGeology = append(c.SoilGeology, p.SoilGeology)
	c.SoilMap = append(c.SoilMap, p.SoilMap)
	c.DistToTrafficM = append(c.DistToTrafficM, p.DistToTrafficM)
	c.X = append(c.X, p.X)
	c.Y = append(c.Y, p.Y)
	c.Segments = append(c.Segments, int32(p.Segments))
}

// EventColumns is the failure log as a struct of arrays. Pipe holds
// registry row indices (not IDs), which is what makes columnar history
// joins map-free.
type EventColumns struct {
	Pipe    []uint32
	Segment []int32
	Year    []int32
	Day     []int32
	Mode    []FailureMode
}

// Columns is one region: its pipe registry and failure log in columnar
// form, the one in-memory form of a dataset. A PCOL file (internal/colfmt)
// decodes straight into it, FromRows builds it from CSV rows or a
// simulation, and it is the only input of feature.Builder, which fills
// its design matrices straight from the column arrays.
//
// Code that fills the columns directly must call IndexEvents before using
// the per-pipe history accessors.
type Columns struct {
	Region string
	// ObservedFrom and ObservedTo bound (inclusively) the calendar years
	// in which failures were recorded; Validate rejects events outside.
	ObservedFrom, ObservedTo int

	Registry PipeColumns
	Events   EventColumns

	// CSR-style per-pipe event index: pipe i's event years are
	// evYear[evStart[i]:evStart[i+1]], grouped (not sorted) by pipe.
	evStart []uint32
	evYear  []int32

	// rowByID maps pipe ID to registry row. It is built on first use by
	// RowOf, so loads that only train never pay for it, and ExtendLive
	// hands it on to the extended region, whose registry rows are the
	// same.
	rowOnce sync.Once
	rowByID map[string]int32
}

// FromRows builds a region from row-form pipes and failures, as the CSV
// loader produces them, and validates it like FromRegistry.
func FromRows(region string, observedFrom, observedTo int, pipes []Pipe, failures []Failure) (*Columns, error) {
	np := len(pipes)
	reg := PipeColumns{
		ID:              make([]string, 0, np),
		Class:           make([]PipeClass, 0, np),
		Material:        make([]Material, 0, np),
		Coating:         make([]Coating, 0, np),
		DiameterMM:      make([]float64, 0, np),
		LengthM:         make([]float64, 0, np),
		LaidYear:        make([]int32, 0, np),
		SoilCorrosivity: make([]string, 0, np),
		SoilExpansivity: make([]string, 0, np),
		SoilGeology:     make([]string, 0, np),
		SoilMap:         make([]string, 0, np),
		DistToTrafficM:  make([]float64, 0, np),
		X:               make([]float64, 0, np),
		Y:               make([]float64, 0, np),
		Segments:        make([]int32, 0, np),
	}
	for i := range pipes {
		reg.Append(&pipes[i])
	}
	return FromRegistry(region, observedFrom, observedTo, reg, failures)
}

// FromRegistry builds a region from a pipe registry already in columns,
// as the simulator fills it, and a row-form failure log, and validates
// it. The region takes over reg's arrays. Failures are sorted in place by
// (Year, Day, PipeID), the order Failures returns, and may arrive in any
// order. The error is a *ValidationError listing every problem Validate
// finds, plus each failure that names no registry pipe.
func FromRegistry(region string, observedFrom, observedTo int, reg PipeColumns, failures []Failure) (*Columns, error) {
	sortFailures(failures)
	c := &Columns{Region: region, ObservedFrom: observedFrom, ObservedTo: observedTo, Registry: reg}
	nf := len(failures)
	e := &c.Events
	*e = EventColumns{
		Pipe:    make([]uint32, 0, nf),
		Segment: make([]int32, 0, nf),
		Year:    make([]int32, 0, nf),
		Day:     make([]int32, 0, nf),
		Mode:    make([]FailureMode, 0, nf),
	}
	var probs problems
	c.checkRegistry(&probs)
	var p Pipe
	for i := range failures {
		f := &failures[i]
		row, ok := c.RowOf(f.PipeID)
		if !ok {
			probs.add("failure %d references unknown pipe %q", i, f.PipeID)
			continue
		}
		c.PipeAt(row, &p)
		probs.checkFailure(i, f, &p, observedFrom, observedTo)
		e.Pipe = append(e.Pipe, uint32(row))
		e.Segment = append(e.Segment, int32(f.Segment))
		e.Year = append(e.Year, int32(f.Year))
		e.Day = append(e.Day, int32(f.Day))
		e.Mode = append(e.Mode, f.Mode)
	}
	if err := probs.err(); err != nil {
		return nil, err
	}
	c.IndexEvents()
	return c, nil
}

// sortFailures orders a failure log by (Year, Day, PipeID), keeping the
// input order of ties.
func sortFailures(fs []Failure) {
	sort.SliceStable(fs, func(a, b int) bool {
		fa, fb := &fs[a], &fs[b]
		if fa.Year != fb.Year {
			return fa.Year < fb.Year
		}
		if fa.Day != fb.Day {
			return fa.Day < fb.Day
		}
		return fa.PipeID < fb.PipeID
	})
}

// NumPipes returns the registry size.
func (c *Columns) NumPipes() int { return len(c.Registry.ID) }

// NumFailures returns the failure-log size.
func (c *Columns) NumFailures() int { return len(c.Events.Pipe) }

// RowOf returns the registry row of the pipe with the given ID. The
// ID index is built on the first call and shared by every region
// ExtendLive derives from c.
func (c *Columns) RowOf(id string) (int, bool) {
	row, ok := c.rowIndex()[id]
	return int(row), ok
}

func (c *Columns) rowIndex() map[string]int32 {
	c.rowOnce.Do(func() {
		if c.rowByID != nil {
			return
		}
		m := make(map[string]int32, c.NumPipes())
		for i, id := range c.Registry.ID {
			m[id] = int32(i)
		}
		c.rowByID = m
	})
	return c.rowByID
}

// PipeAt assembles pipe i from the columns. The string fields share
// backing with the columns, so nothing is allocated.
func (c *Columns) PipeAt(i int, p *Pipe) {
	pc := &c.Registry
	*p = Pipe{
		ID:              pc.ID[i],
		Class:           pc.Class[i],
		Material:        pc.Material[i],
		Coating:         pc.Coating[i],
		DiameterMM:      pc.DiameterMM[i],
		LengthM:         pc.LengthM[i],
		LaidYear:        int(pc.LaidYear[i]),
		SoilCorrosivity: pc.SoilCorrosivity[i],
		SoilExpansivity: pc.SoilExpansivity[i],
		SoilGeology:     pc.SoilGeology[i],
		SoilMap:         pc.SoilMap[i],
		DistToTrafficM:  pc.DistToTrafficM[i],
		X:               pc.X[i],
		Y:               pc.Y[i],
		Segments:        int(pc.Segments[i]),
	}
}

// failureAt assembles event e from the columns without allocating.
func (c *Columns) failureAt(e int, f *Failure) {
	ev := &c.Events
	*f = Failure{
		PipeID:  c.Registry.ID[ev.Pipe[e]],
		Segment: int(ev.Segment[e]),
		Year:    int(ev.Year[e]),
		Day:     int(ev.Day[e]),
		Mode:    ev.Mode[e],
	}
}

// FailureCount returns how many failures pipe i had in calendar years
// [from, to] (inclusive); from > to is an empty window.
func (c *Columns) FailureCount(i, from, to int) int {
	n := 0
	for _, y := range c.evYear[c.evStart[i]:c.evStart[i+1]] {
		if yy := int(y); yy >= from && yy <= to {
			n++
		}
	}
	return n
}

// FailedInYear reports whether pipe i failed at least once in year.
func (c *Columns) FailedInYear(i, year int) bool {
	for _, y := range c.evYear[c.evStart[i]:c.evStart[i+1]] {
		if int(y) == year {
			return true
		}
	}
	return false
}

// IndexEvents (re)derives the per-pipe event index from the columns.
// Three allocations, O(pipes + events) time, no maps. Every Events.Pipe
// entry must be a row of the registry.
func (c *Columns) IndexEvents() {
	n := c.NumPipes()
	counts := make([]uint32, n+1)
	for _, p := range c.Events.Pipe {
		counts[p+1]++
	}
	for i := 1; i <= n; i++ {
		counts[i] += counts[i-1]
	}
	c.evStart = counts
	c.evYear = make([]int32, len(c.Events.Pipe))
	fill := make([]uint32, n)
	copy(fill, counts[:n])
	for e, p := range c.Events.Pipe {
		c.evYear[fill[p]] = c.Events.Year[e]
		fill[p]++
	}
}

// Validate checks the structural integrity of the region: unique,
// non-empty pipe IDs, physically plausible attributes, and failures on
// valid segments inside the observation window and after the pipe was
// laid. It returns nil when the region is clean, or a *ValidationError
// listing every problem. Event pipe references must already lie inside
// the registry (the PCOL decoder and FromRows enforce that). A clean
// registry costs O(1) allocations, one sort index for the duplicate-ID
// scan, whatever its size.
func (c *Columns) Validate() error {
	var probs problems
	c.checkRegistry(&probs)
	var p Pipe
	var f Failure
	for e := range c.Events.Pipe {
		c.failureAt(e, &f)
		c.PipeAt(int(c.Events.Pipe[e]), &p)
		probs.checkFailure(e, &f, &p, c.ObservedFrom, c.ObservedTo)
	}
	return probs.err()
}

// checkRegistry applies the window and per-pipe rules, then reports
// duplicate IDs.
func (c *Columns) checkRegistry(probs *problems) {
	if c.ObservedFrom > c.ObservedTo {
		probs.add("observation window [%d, %d] is inverted", c.ObservedFrom, c.ObservedTo)
	}
	var p Pipe
	for i := range c.Registry.ID {
		c.PipeAt(i, &p)
		if p.ID == "" {
			probs.add("pipe %d has empty ID", i)
			continue
		}
		probs.checkPipe(&p, c.ObservedTo)
	}
	// Duplicate-ID detection without an ID map: sort a row index by ID
	// and compare neighbours.
	ids := c.Registry.ID
	idx := make([]int32, len(ids))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int { return strings.Compare(ids[a], ids[b]) })
	for i := 1; i < len(idx); i++ {
		if id := ids[idx[i]]; id != "" && id == ids[idx[i-1]] {
			probs.add("duplicate pipe ID %q", id)
		}
	}
}

// Pipes materializes the registry in row order (fresh slice).
func (c *Columns) Pipes() []Pipe {
	out := make([]Pipe, c.NumPipes())
	for i := range out {
		c.PipeAt(i, &out[i])
	}
	return out
}

// Failures materializes the event log sorted by (Year, Day, PipeID),
// ties in stored order (fresh slice; safe for the caller to mutate).
func (c *Columns) Failures() []Failure {
	out := make([]Failure, c.NumFailures())
	for e := range out {
		c.failureAt(e, &out[e])
	}
	sortFailures(out)
	return out
}

// Network returns c; it stays for callers written against the former row form.
func (c *Columns) Network() (*Columns, error) { return c, nil }
