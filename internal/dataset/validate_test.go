package dataset

import (
	"strings"
	"testing"
)

func TestValidateCleanNetwork(t *testing.T) {
	if err := testNetwork().Validate(); err != nil {
		t.Fatalf("clean network failed validation: %v", err)
	}
}

func TestValidateCatchesEveryProblemKind(t *testing.T) {
	pipes := []Pipe{
		{ID: "", DiameterMM: 100, LengthM: 10, LaidYear: 1990, Segments: 1, Class: ReticulationMain},                       // empty ID
		{ID: "D", DiameterMM: 100, LengthM: 10, LaidYear: 1990, Segments: 1, Class: ReticulationMain},                      // fine
		{ID: "D", DiameterMM: 100, LengthM: 10, LaidYear: 1990, Segments: 1, Class: ReticulationMain},                      // duplicate
		{ID: "B1", DiameterMM: -5, LengthM: 10, LaidYear: 1990, Segments: 1, Class: ReticulationMain},                      // bad diameter (also class mismatch)
		{ID: "B2", DiameterMM: 100, LengthM: 0, LaidYear: 1990, Segments: 1, Class: ReticulationMain},                      // bad length
		{ID: "B3", DiameterMM: 100, LengthM: 10, LaidYear: 1990, Segments: 0, Class: ReticulationMain},                     // bad segments
		{ID: "B4", DiameterMM: 100, LengthM: 10, LaidYear: 2050, Segments: 1, Class: ReticulationMain},                     // laid after window
		{ID: "B5", DiameterMM: 500, LengthM: 10, LaidYear: 1990, Segments: 1, Class: ReticulationMain},                     // class mismatch
		{ID: "B6", DiameterMM: 100, LengthM: 10, LaidYear: 1990, Segments: 1, Class: ReticulationMain, DistToTrafficM: -1}, // negative traffic
	}
	fails := []Failure{
		{PipeID: "GHOST", Segment: 0, Year: 2000, Day: 1}, // unknown pipe
		{PipeID: "D", Segment: 5, Year: 2000, Day: 1},     // bad segment
		{PipeID: "D", Segment: 0, Year: 1980, Day: 1},     // outside window
		{PipeID: "D", Segment: 0, Year: 2000, Day: 0},     // bad day
		{PipeID: "B4", Segment: 0, Year: 2000, Day: 1},    // predates laid year
	}
	_, err := FromRows("BAD", 1998, 2009, pipes, fails)
	if err == nil {
		t.Fatal("validation must fail")
	}
	ve, ok := AsValidationError(err)
	if !ok {
		t.Fatalf("error is %T, want *ValidationError", err)
	}
	wantSubstrings := []string{
		"empty ID", "duplicate pipe ID", "non-positive diameter",
		"non-positive length", "non-positive segment count", "laid in 2050",
		"inconsistent with diameter", "negative traffic distance",
		"unknown pipe", "outside [0,", "outside window",
		"day-of-year", "predates laid year",
	}
	joined := strings.Join(ve.Problems, " | ")
	for _, want := range wantSubstrings {
		if !strings.Contains(joined, want) {
			t.Errorf("validation problems missing %q in:\n%s", want, joined)
		}
	}
}

func TestValidateInvertedWindow(t *testing.T) {
	if _, err := FromRows("W", 2009, 1998, nil, nil); err == nil {
		t.Fatal("inverted window must fail")
	}
}

func TestValidationErrorTruncation(t *testing.T) {
	probs := make([]string, 25)
	for i := range probs {
		probs[i] = "p"
	}
	e := &ValidationError{Problems: probs}
	msg := e.Error()
	if !strings.Contains(msg, "25 validation problem(s)") {
		t.Fatalf("message %q missing count", msg)
	}
	if !strings.Contains(msg, "and 15 more") {
		t.Fatalf("message %q missing truncation note", msg)
	}
}

func TestAsValidationErrorNonMatch(t *testing.T) {
	if _, ok := AsValidationError(ErrNotAValidationError{}); ok {
		t.Fatal("non-validation error must not match")
	}
}

// ErrNotAValidationError is a helper error type for the test above.
type ErrNotAValidationError struct{}

func (ErrNotAValidationError) Error() string { return "other" }
