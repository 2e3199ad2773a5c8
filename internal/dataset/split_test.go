package dataset

import "testing"

func TestPaperSplit(t *testing.T) {
	n := testNetwork()
	s, err := PaperSplit(n)
	if err != nil {
		t.Fatal(err)
	}
	if s.TrainFrom != 1998 || s.TrainTo != 2008 || s.TestYear != 2009 {
		t.Fatalf("split %+v", s)
	}
}

func TestNewSplitValidation(t *testing.T) {
	n := testNetwork()
	cases := []struct{ from, to, test int }{
		{2005, 2000, 2006}, // inverted
		{1998, 2005, 2004}, // test inside train
		{1990, 2000, 2001}, // before observation
		{1998, 2008, 2020}, // after observation
	}
	for _, c := range cases {
		if _, err := NewSplit(n, c.from, c.to, c.test); err == nil {
			t.Errorf("NewSplit(%+v) should fail", c)
		}
	}
}

// TestTrainFailuresAndTestLabels pins what a split selects from the
// columnar form the feature builder reads: failures counted over the
// inclusive train window and the per-pipe test-year label.
func TestTrainFailuresAndTestLabels(t *testing.T) {
	c := testNetwork()
	s, err := NewSplit(c, 1998, 2004, 2005)
	if err != nil {
		t.Fatal(err)
	}
	windowFailures := func(from, to int) int {
		total := 0
		for i := 0; i < c.NumPipes(); i++ {
			total += c.FailureCount(i, from, to)
		}
		return total
	}
	// Train window 1998-2004 contains: P1@2000, P3@2001 x2 = 3 events.
	if got := windowFailures(s.TrainFrom, s.TrainTo); got != 3 {
		t.Fatalf("train failures = %d", got)
	}
	// Pipes order P1, P2, P3; only P3 failed in 2005.
	want := []bool{false, false, true}
	for i := range want {
		if got := c.FailedInYear(i, s.TestYear); got != want[i] {
			t.Fatalf("pipe %d test label = %v, want %v", i, got, want[i])
		}
	}
}

func TestRollingSplits(t *testing.T) {
	n := testNetwork()
	splits, err := RollingSplits(n, 2005)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 5 { // 2005..2009
		t.Fatalf("want 5 splits, got %d", len(splits))
	}
	for i, s := range splits {
		if s.TestYear != 2005+i {
			t.Fatalf("split %d test year %d", i, s.TestYear)
		}
		if s.TrainFrom != 1998 || s.TrainTo != s.TestYear-1 {
			t.Fatalf("split %d window [%d,%d]", i, s.TrainFrom, s.TrainTo)
		}
	}
	if _, err := RollingSplits(n, 1998); err == nil {
		t.Fatal("first test at observation start must fail")
	}
	if _, err := RollingSplits(n, 2050); err == nil {
		t.Fatal("first test after observation end must fail")
	}
}

func TestWindowSplit(t *testing.T) {
	n := testNetwork()
	s, err := WindowSplit(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.TrainFrom != 2005 || s.TrainTo != 2008 || s.TestYear != 2009 {
		t.Fatalf("window split %+v", s)
	}
	// Window larger than history clamps to observation start.
	s, err = WindowSplit(n, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s.TrainFrom != 1998 {
		t.Fatalf("clamped window split %+v", s)
	}
	if _, err := WindowSplit(n, 0); err == nil {
		t.Fatal("w=0 must fail")
	}
}
