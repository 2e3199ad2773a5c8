package dataset

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ValidationError aggregates every integrity problem found in a region so
// a data-loading pipeline can report them all at once instead of failing on
// the first.
type ValidationError struct {
	Problems []string
}

// Error implements the error interface; it lists up to ten problems.
func (e *ValidationError) Error() string {
	const show = 10
	n := len(e.Problems)
	shown := e.Problems
	if n > show {
		shown = e.Problems[:show]
	}
	msg := fmt.Sprintf("dataset: %d validation problem(s): %s", n, strings.Join(shown, "; "))
	if n > show {
		msg += fmt.Sprintf("; and %d more", n-show)
	}
	return msg
}

// problems accumulates validation findings; the zero value is empty and
// adding nothing allocates nothing.
type problems []string

func (ps *problems) add(format string, args ...any) {
	*ps = append(*ps, fmt.Sprintf(format, args...))
}

func (ps problems) err() error {
	if len(ps) == 0 {
		return nil
	}
	return &ValidationError{Problems: ps}
}

// checkPipe applies the per-pipe plausibility rules to a pipe with a
// non-empty ID.
func (ps *problems) checkPipe(p *Pipe, observedTo int) {
	for _, v := range [...]struct {
		name string
		v    float64
	}{
		{"diameter", p.DiameterMM}, {"length", p.LengthM},
		{"traffic distance", p.DistToTrafficM}, {"x", p.X}, {"y", p.Y},
	} {
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			ps.add("pipe %q has non-finite %s", p.ID, v.name)
		}
	}
	if p.DiameterMM <= 0 {
		ps.add("pipe %q has non-positive diameter %v", p.ID, p.DiameterMM)
	}
	if p.LengthM <= 0 {
		ps.add("pipe %q has non-positive length %v", p.ID, p.LengthM)
	}
	if p.Segments <= 0 {
		ps.add("pipe %q has non-positive segment count %d", p.ID, p.Segments)
	}
	if p.LaidYear > observedTo {
		ps.add("pipe %q laid in %d, after observation end %d", p.ID, p.LaidYear, observedTo)
	}
	if p.Class != ClassForDiameter(p.DiameterMM) {
		ps.add("pipe %q class %s inconsistent with diameter %v mm", p.ID, p.Class, p.DiameterMM)
	}
	if p.DistToTrafficM < 0 {
		ps.add("pipe %q has negative traffic distance %v", p.ID, p.DistToTrafficM)
	}
}

// checkFailure applies the per-failure plausibility rules to failure i,
// recorded against pipe p.
func (ps *problems) checkFailure(i int, f *Failure, p *Pipe, observedFrom, observedTo int) {
	if f.Segment < 0 || f.Segment >= p.Segments {
		ps.add("failure %d on pipe %q has segment %d outside [0,%d)", i, f.PipeID, f.Segment, p.Segments)
	}
	if f.Year < observedFrom || f.Year > observedTo {
		ps.add("failure %d on pipe %q in year %d outside window [%d,%d]",
			i, f.PipeID, f.Year, observedFrom, observedTo)
	}
	if f.Year < p.LaidYear {
		ps.add("failure %d on pipe %q predates laid year %d", i, f.PipeID, p.LaidYear)
	}
	if f.Day < 1 || f.Day > 366 {
		ps.add("failure %d on pipe %q has day-of-year %d", i, f.PipeID, f.Day)
	}
}

// AsValidationError unwraps err into a *ValidationError when possible.
func AsValidationError(err error) (*ValidationError, bool) {
	var ve *ValidationError
	if errors.As(err, &ve) {
		return ve, true
	}
	return nil, false
}
