package main

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractChildren(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * us},
		// Two overlapping children cover [10,50) once, not twice.
		{ID: 2, Parent: 1, Name: "a", Start: 10 * us, End: 40 * us},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * us, End: 50 * us},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "c", Start: 90 * us, End: 120 * us},
		// A grandchild is subtracted from its own parent only.
		{ID: 5, Parent: 2, Name: "a1", Start: 15 * us, End: 25 * us},
		// A span with no parent in the set is a root of its own.
		{ID: 6, Parent: 99, Name: "orphan", Start: 0, End: 5 * us},
	}
	want := []time.Duration{
		100*us - 40*us - 10*us, // root: covered [10,50) and [90,100)
		30*us - 10*us,          // a: minus a1
		20 * us,
		30 * us,
		10 * us,
		5 * us,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	by := selfByName(spans)
	if len(by["root"]) != 1 || by["root"][0] != want[0] {
		t.Errorf("selfByName root = %v", by["root"])
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer()
	tr.do("outer", 0, 7, func(id int) {
		tr.do("inner", id, 7, func(int) { time.Sleep(time.Millisecond) })
	})
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Op != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	self := selfTimes(spans)
	if self[0] < 0 || self[0] >= spans[0].dur() || self[1] != spans[1].dur() {
		t.Fatalf("self times %v for %+v", self, spans)
	}
	var off *tracer
	off.do("ignored", 0, 0, func(id int) {
		if id != 0 {
			t.Errorf("nil tracer handed out span %d", id)
		}
	})
	if off.snapshot() != nil {
		t.Error("nil tracer kept spans")
	}
}
