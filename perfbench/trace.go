package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, made by the benchmark itself.
// Parent is the ID of the span whose call caused this one (0 for none);
// Op groups the spans of one operation, such as one HTTP request.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced passes run the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, op int64, fn func(id int)) {
	id := t.begin(name, parent, op)
	fn(id)
	t.end(id)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the part of its interval that its children cover.
// Overlapping children are merged first, so parallel children are not
// subtracted twice, and a child running past its parent is clipped.
func selfTimes(spans []span) []time.Duration {
	pos := make(map[int]int, len(spans))
	for i, s := range spans {
		pos[s.ID] = i
	}
	kids := make(map[int][]span)
	for _, s := range spans {
		if _, ok := pos[s.Parent]; ok {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].Start < ivs[b].Start })
		var covered time.Duration
		curS, curE := time.Duration(-1), time.Duration(-1)
		for _, c := range ivs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if curE < 0 || lo > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = lo, hi
			} else if hi > curE {
				curE = hi
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		out[i] = s.dur() - covered
	}
	return out
}

// selfByName collects self times per span name.
func selfByName(spans []span) map[string][]time.Duration {
	self := selfTimes(spans)
	out := make(map[string][]time.Duration)
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], self[i])
	}
	return out
}

// writeSpans saves the spans as JSON for later inspection.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
