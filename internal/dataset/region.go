package dataset

// SubsetByClass returns a new region containing only pipes of the given
// class, in registry order, and the failures recorded against them.
func (c *Columns) SubsetByClass(class PipeClass) *Columns {
	var rows []int32
	for i, cl := range c.Registry.Class {
		if cl == class {
			rows = append(rows, int32(i))
		}
	}
	return c.selectRows(c.Region, rows)
}

// selectRows returns a new region named region holding the registry rows
// in the given order and, in stored order, the events of those pipes.
func (c *Columns) selectRows(region string, rows []int32) *Columns {
	out := &Columns{Region: region, ObservedFrom: c.ObservedFrom, ObservedTo: c.ObservedTo}
	newRow := make([]int32, c.NumPipes())
	for i := range newRow {
		newRow[i] = -1
	}
	var p Pipe
	for j, i := range rows {
		c.PipeAt(int(i), &p)
		out.Registry.Append(&p)
		newRow[i] = int32(j)
	}
	ev, oe := &c.Events, &out.Events
	for e, pipe := range ev.Pipe {
		j := newRow[pipe]
		if j < 0 {
			continue
		}
		oe.Pipe = append(oe.Pipe, uint32(j))
		oe.Segment = append(oe.Segment, ev.Segment[e])
		oe.Year = append(oe.Year, ev.Year[e])
		oe.Day = append(oe.Day, ev.Day[e])
		oe.Mode = append(oe.Mode, ev.Mode[e])
	}
	out.IndexEvents()
	return out
}

// TotalLengthM returns the summed length of all pipes in metres.
func (c *Columns) TotalLengthM() float64 {
	s := 0.0
	for _, l := range c.Registry.LengthM {
		s += l
	}
	return s
}

// LaidYearRange returns the earliest and latest laid years in the
// registry. It returns (0, 0) for an empty registry.
func (c *Columns) LaidYearRange() (from, to int) {
	laid := c.Registry.LaidYear
	if len(laid) == 0 {
		return 0, 0
	}
	lo, hi := laid[0], laid[0]
	for _, y := range laid {
		lo, hi = min(lo, y), max(hi, y)
	}
	return int(lo), int(hi)
}

// Summary is one row of the dataset-summary table (paper Table 1 analogue).
type Summary struct {
	Region       string
	Scope        string // "All" or a PipeClass string
	NumPipes     int
	NumFailures  int
	LaidFrom     int
	LaidTo       int
	ObservedFrom int
	ObservedTo   int
	TotalKM      float64
}

// Summarize produces summary rows for the whole region and for each pipe
// class present, in a stable order (All, CWM, RWM), from one pass over
// the registry and one over the failure log. Lengths are summed in
// registry order, so each TotalKM has the bits of TotalLengthM over the
// matching SubsetByClass.
func (c *Columns) Summarize() []Summary {
	type agg struct {
		pipes, failures  int
		laidFrom, laidTo int32
		lengthM          float64
	}
	add := func(a *agg, laid int32, lengthM float64) {
		if a.pipes == 0 || laid < a.laidFrom {
			a.laidFrom = laid
		}
		if a.pipes == 0 || laid > a.laidTo {
			a.laidTo = laid
		}
		a.pipes++
		a.lengthM += lengthM
	}
	reg := &c.Registry
	var all agg
	var byClass [2]agg // indexed by CriticalMain, ReticulationMain
	for i, class := range reg.Class {
		add(&all, reg.LaidYear[i], reg.LengthM[i])
		if class == CriticalMain || class == ReticulationMain {
			add(&byClass[class], reg.LaidYear[i], reg.LengthM[i])
		}
	}
	all.failures = c.NumFailures()
	for _, pipe := range c.Events.Pipe {
		if class := reg.Class[pipe]; class == CriticalMain || class == ReticulationMain {
			byClass[class].failures++
		}
	}
	row := func(scope string, a *agg) Summary {
		return Summary{
			Region:       c.Region,
			Scope:        scope,
			NumPipes:     a.pipes,
			NumFailures:  a.failures,
			LaidFrom:     int(a.laidFrom),
			LaidTo:       int(a.laidTo),
			ObservedFrom: c.ObservedFrom,
			ObservedTo:   c.ObservedTo,
			TotalKM:      a.lengthM / 1000,
		}
	}
	rows := make([]Summary, 0, 1+len(byClass))
	rows = append(rows, row("All", &all))
	for class := range byClass {
		if a := &byClass[class]; a.pipes > 0 {
			rows = append(rows, row(PipeClass(class).String(), a))
		}
	}
	return rows
}
