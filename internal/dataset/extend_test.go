package dataset

import (
	"reflect"
	"testing"
)

func extendFixture() *Columns {
	pipes := []Pipe{
		{ID: "P1", Class: CriticalMain, Material: "CI", DiameterMM: 300, LengthM: 120, LaidYear: 1960, Segments: 3},
		{ID: "P2", Class: ReticulationMain, Material: "PVC", DiameterMM: 100, LengthM: 80, LaidYear: 1990, Segments: 2},
	}
	fails := []Failure{
		{PipeID: "P1", Segment: 0, Year: 2001, Day: 40, Mode: ModeBreak},
		{PipeID: "P2", Segment: 1, Year: 2003, Day: 100, Mode: ModeLeak},
	}
	return mustRows("X", 2000, 2005, pipes, fails)
}

func TestExtendLiveAppendsAndExtendsWindow(t *testing.T) {
	n := extendFixture()
	ext := n.ExtendLive([]Failure{
		{PipeID: "P1", Segment: 1, Year: 2007, Day: 12, Mode: ModeBreak},
		{PipeID: "P2", Segment: 0, Year: 2002, Day: 5, Mode: ModeBlockage},
	}, nil)
	if ext.NumFailures() != 4 {
		t.Fatalf("NumFailures = %d, want 4", ext.NumFailures())
	}
	if ext.ObservedTo != 2007 {
		t.Fatalf("ObservedTo = %d, want 2007", ext.ObservedTo)
	}
	if ext.ObservedFrom != 2000 {
		t.Fatalf("ObservedFrom = %d, want 2000", ext.ObservedFrom)
	}
	// Failures() merges in order: the 2002 event lands between the
	// originals.
	years := make([]int, 0, 4)
	for _, f := range ext.Failures() {
		years = append(years, f.Year)
	}
	if !reflect.DeepEqual(years, []int{2001, 2002, 2003, 2007}) {
		t.Fatalf("failure years = %v", years)
	}
	if got := ext.FailureCount(0, 2000, 2007); got != 2 {
		t.Fatalf("P1 history = %d failures, want 2", got)
	}
	// Base region untouched.
	if n.NumFailures() != 2 || n.ObservedTo != 2005 || n.FailureCount(0, 2000, 2007) != 1 {
		t.Fatalf("base mutated: %d failures, ObservedTo %d", n.NumFailures(), n.ObservedTo)
	}
}

func TestExtendLiveRenewalsResetLaidYear(t *testing.T) {
	n := extendFixture()
	ext := n.ExtendLive(nil, []Renewal{
		{PipeID: "P1", Year: 2004},
		{PipeID: "P1", Year: 2002}, // older renewal never regresses LaidYear
		{PipeID: "P9", Year: 2004}, // unknown pipe skipped
	})
	row, ok := ext.RowOf("P1")
	if !ok || ext.Registry.LaidYear[row] != 2004 {
		t.Fatalf("P1 LaidYear = %v, want 2004", ext.Registry.LaidYear)
	}
	if n.Registry.LaidYear[row] != 1960 {
		t.Fatalf("base P1 mutated to %d", n.Registry.LaidYear[row])
	}
	if ext.ObservedTo != n.ObservedTo {
		t.Fatalf("renewals must not move ObservedTo")
	}
}

func TestExtendLiveDeterministic(t *testing.T) {
	n := extendFixture()
	extra := []Failure{
		{PipeID: "P2", Segment: 0, Year: 2006, Day: 200, Mode: ModeLeak},
		{PipeID: "P1", Segment: 2, Year: 2006, Day: 200, Mode: ModeBreak},
	}
	a := n.ExtendLive(extra, nil)
	b := n.ExtendLive(extra, nil)
	if !reflect.DeepEqual(a.Failures(), b.Failures()) || !reflect.DeepEqual(a.Pipes(), b.Pipes()) {
		t.Fatal("ExtendLive not deterministic")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestExtendLiveEmptyIsEquivalent(t *testing.T) {
	n := extendFixture()
	ext := n.ExtendLive(nil, nil)
	if !reflect.DeepEqual(ext.Failures(), n.Failures()) || !reflect.DeepEqual(ext.Pipes(), n.Pipes()) {
		t.Fatal("no-op ExtendLive changed data")
	}
	if ext.ObservedFrom != n.ObservedFrom || ext.ObservedTo != n.ObservedTo {
		t.Fatal("no-op ExtendLive changed window")
	}
}
