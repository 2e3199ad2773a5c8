package dataset

import "sort"

// Network is a region's pipe registry plus its observed failure log.
// The zero value is unusable; construct with NewNetwork or the CSV loaders.
type Network struct {
	// Region names the network (e.g. "A", "B", "C").
	Region string
	// ObservedFrom and ObservedTo bound (inclusively) the calendar years in
	// which failures were recorded. Events outside this window are rejected
	// by Validate.
	ObservedFrom, ObservedTo int

	pipes    []Pipe
	failures []Failure

	byID       map[string]int
	failByPipe map[string][]int // indices into failures, sorted by (Year, Day)
}

// NewNetwork builds a Network and its indices. It copies neither slice, so
// callers must not mutate them afterwards. Use Validate to check integrity.
func NewNetwork(region string, observedFrom, observedTo int, pipes []Pipe, failures []Failure) *Network {
	n := &Network{
		Region:       region,
		ObservedFrom: observedFrom,
		ObservedTo:   observedTo,
		pipes:        pipes,
		failures:     failures,
	}
	n.reindex()
	return n
}

func (n *Network) reindex() {
	n.byID = make(map[string]int, len(n.pipes))
	for i := range n.pipes {
		n.byID[n.pipes[i].ID] = i
	}
	sort.SliceStable(n.failures, func(a, b int) bool {
		fa, fb := &n.failures[a], &n.failures[b]
		if fa.Year != fb.Year {
			return fa.Year < fb.Year
		}
		if fa.Day != fb.Day {
			return fa.Day < fb.Day
		}
		return fa.PipeID < fb.PipeID
	})
	n.failByPipe = make(map[string][]int)
	for i := range n.failures {
		id := n.failures[i].PipeID
		n.failByPipe[id] = append(n.failByPipe[id], i)
	}
}

// Pipes returns the pipe slice. Callers must treat it as read-only.
func (n *Network) Pipes() []Pipe { return n.pipes }

// Failures returns the failure log sorted by (Year, Day, PipeID).
// Callers must treat it as read-only.
func (n *Network) Failures() []Failure { return n.failures }

// NumPipes returns the number of pipes.
func (n *Network) NumPipes() int { return len(n.pipes) }

// NumFailures returns the number of recorded failures.
func (n *Network) NumFailures() int { return len(n.failures) }

// PipeByID returns the pipe with the given asset ID.
func (n *Network) PipeByID(id string) (*Pipe, bool) {
	i, ok := n.byID[id]
	if !ok {
		return nil, false
	}
	return &n.pipes[i], true
}

// FailuresOf returns the failures recorded against the pipe, in time order.
func (n *Network) FailuresOf(pipeID string) []Failure {
	idx := n.failByPipe[pipeID]
	out := make([]Failure, len(idx))
	for i, j := range idx {
		out[i] = n.failures[j]
	}
	return out
}

// FailureCount returns how many failures the pipe had in calendar years
// [from, to] (inclusive).
func (n *Network) FailureCount(pipeID string, from, to int) int {
	c := 0
	for _, j := range n.failByPipe[pipeID] {
		y := n.failures[j].Year
		if y >= from && y <= to {
			c++
		}
	}
	return c
}

// FailedInYear reports whether the pipe had at least one failure in year.
func (n *Network) FailedInYear(pipeID string, year int) bool {
	for _, j := range n.failByPipe[pipeID] {
		if n.failures[j].Year == year {
			return true
		}
	}
	return false
}

// SubsetByClass returns a new Network containing only pipes of the given
// class and the failures recorded against them.
func (n *Network) SubsetByClass(class PipeClass) *Network {
	keep := make(map[string]bool)
	var pipes []Pipe
	for i := range n.pipes {
		if n.pipes[i].Class == class {
			pipes = append(pipes, n.pipes[i])
			keep[n.pipes[i].ID] = true
		}
	}
	var fails []Failure
	for i := range n.failures {
		if keep[n.failures[i].PipeID] {
			fails = append(fails, n.failures[i])
		}
	}
	return NewNetwork(n.Region, n.ObservedFrom, n.ObservedTo, pipes, fails)
}

// TotalLengthM returns the summed length of all pipes in metres.
func (n *Network) TotalLengthM() float64 {
	s := 0.0
	for i := range n.pipes {
		s += n.pipes[i].LengthM
	}
	return s
}

// LaidYearRange returns the earliest and latest laid years in the registry.
// It returns (0, 0) for an empty network.
func (n *Network) LaidYearRange() (min, max int) {
	if len(n.pipes) == 0 {
		return 0, 0
	}
	min, max = n.pipes[0].LaidYear, n.pipes[0].LaidYear
	for i := range n.pipes {
		y := n.pipes[i].LaidYear
		if y < min {
			min = y
		}
		if y > max {
			max = y
		}
	}
	return min, max
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

// Summarize produces summary rows for the whole network and for each pipe
// class present, in a stable order (All, CWM, RWM).
func (n *Network) Summarize() []Summary {
	rows := []Summary{n.summaryRow("All", n)}
	for _, class := range []PipeClass{CriticalMain, ReticulationMain} {
		sub := n.SubsetByClass(class)
		if sub.NumPipes() > 0 {
			rows = append(rows, n.summaryRow(class.String(), sub))
		}
	}
	return rows
}

func (n *Network) summaryRow(scope string, sub *Network) Summary {
	laidFrom, laidTo := sub.LaidYearRange()
	return Summary{
		Region:       n.Region,
		Scope:        scope,
		NumPipes:     sub.NumPipes(),
		NumFailures:  sub.NumFailures(),
		LaidFrom:     laidFrom,
		LaidTo:       laidTo,
		ObservedFrom: n.ObservedFrom,
		ObservedTo:   n.ObservedTo,
		TotalKM:      sub.TotalLengthM() / 1000,
	}
}
