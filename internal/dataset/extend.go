package dataset

// Renewal records a registry update: the pipe was replaced (or fully
// rehabilitated) in Year, which resets its effective laid year. The
// streaming-ingest path applies renewals alongside live failures when
// rebuilding the training region.
type Renewal struct {
	PipeID string
	Year   int
}

// ExtendLive derives a new region from c with live events applied:
// extra failures appended to the event log and renewals applied to the
// registry (LaidYear := max(LaidYear, Renewal.Year) for each named pipe).
// ObservedTo is extended to cover the latest extra failure year, so the
// paper's default split retrains on the freshest window and holds out the
// newest year. Failures naming a pipe outside the registry are dropped,
// as are renewals of absent pipes.
//
// c is never mutated, so concurrent calls may extend one base. The result
// shares c's pipe columns except LaidYear, which is copied only when a
// renewal changes it, and writes the base and live events into fresh
// slices. Every feature of the result depends only on the set of applied
// events, not on their order.
func (c *Columns) ExtendLive(extra []Failure, renewals []Renewal) *Columns {
	out := &Columns{
		Region:       c.Region,
		ObservedFrom: c.ObservedFrom,
		ObservedTo:   c.ObservedTo,
		Registry:     c.Registry,
		rowByID:      c.rowIndex(),
	}
	copied := false
	for _, r := range renewals {
		i, ok := c.RowOf(r.PipeID)
		if !ok || int32(r.Year) <= out.Registry.LaidYear[i] {
			continue
		}
		if !copied {
			out.Registry.LaidYear = append([]int32(nil), c.Registry.LaidYear...)
			copied = true
		}
		out.Registry.LaidYear[i] = int32(r.Year)
	}

	n := c.NumFailures() + len(extra)
	ev := &c.Events
	oe := &out.Events
	*oe = EventColumns{
		Pipe:    append(make([]uint32, 0, n), ev.Pipe...),
		Segment: append(make([]int32, 0, n), ev.Segment...),
		Year:    append(make([]int32, 0, n), ev.Year...),
		Day:     append(make([]int32, 0, n), ev.Day...),
		Mode:    append(make([]FailureMode, 0, n), ev.Mode...),
	}
	for i := range extra {
		f := &extra[i]
		out.ObservedTo = max(out.ObservedTo, f.Year)
		row, ok := c.RowOf(f.PipeID)
		if !ok {
			continue
		}
		oe.Pipe = append(oe.Pipe, uint32(row))
		oe.Segment = append(oe.Segment, int32(f.Segment))
		oe.Year = append(oe.Year, int32(f.Year))
		oe.Day = append(oe.Day, int32(f.Day))
		oe.Mode = append(oe.Mode, f.Mode)
	}
	out.IndexEvents()
	return out
}
