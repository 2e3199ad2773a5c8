package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// testNetwork builds a small hand-constructed region used across tests.
func testNetwork() *Columns {
	pipes := []Pipe{
		{ID: "P1", Class: CriticalMain, Material: CICL, Coating: CoatingNone,
			DiameterMM: 375, LengthM: 500, LaidYear: 1950, SoilCorrosivity: "HIGH",
			SoilExpansivity: "SLIGHT", SoilGeology: "CLAY", SoilMap: "FLUVIAL",
			DistToTrafficM: 20, X: 100, Y: 100, Segments: 5},
		{ID: "P2", Class: ReticulationMain, Material: PVC, Coating: CoatingNone,
			DiameterMM: 100, LengthM: 120, LaidYear: 1990, SoilCorrosivity: "LOW",
			SoilExpansivity: "STABLE", SoilGeology: "SANDSTONE", SoilMap: "RESIDUAL",
			DistToTrafficM: 300, X: 200, Y: 150, Segments: 2},
		{ID: "P3", Class: CriticalMain, Material: CI, Coating: CoatingTar,
			DiameterMM: 450, LengthM: 900, LaidYear: 1930, SoilCorrosivity: "SEVERE",
			SoilExpansivity: "HIGH", SoilGeology: "SHALE", SoilMap: "SWAMP",
			DistToTrafficM: 5, X: 50, Y: 250, Segments: 9},
	}
	fails := []Failure{
		{PipeID: "P3", Segment: 2, Year: 2001, Day: 40, Mode: ModeBreak},
		{PipeID: "P1", Segment: 0, Year: 2000, Day: 120, Mode: ModeBreak},
		{PipeID: "P3", Segment: 7, Year: 2005, Day: 300, Mode: ModeLeak},
		{PipeID: "P3", Segment: 1, Year: 2001, Day: 10, Mode: ModeBreak},
	}
	return mustRows("T", 1998, 2009, pipes, fails)
}

// mustRows is FromRows for fixtures that must be valid.
func mustRows(region string, from, to int, pipes []Pipe, fails []Failure) *Columns {
	c, err := FromRows(region, from, to, pipes, fails)
	if err != nil {
		panic(err)
	}
	return c
}

// failuresOf is the test oracle for a pipe's history: its failures in
// the materialized log, in (Year, Day) order.
func failuresOf(c *Columns, id string) []Failure {
	var out []Failure
	for _, f := range c.Failures() {
		if f.PipeID == id {
			out = append(out, f)
		}
	}
	return out
}

func TestNetworkIndexing(t *testing.T) {
	n := testNetwork()
	if n.NumPipes() != 3 || n.NumFailures() != 4 {
		t.Fatalf("counts: %d pipes, %d failures", n.NumPipes(), n.NumFailures())
	}
	row, ok := n.RowOf("P2")
	if !ok || row != 1 || n.Registry.Material[row] != PVC {
		t.Fatalf("RowOf(P2) = %d, %v", row, ok)
	}
	if _, ok := n.RowOf("NOPE"); ok {
		t.Fatal("unknown pipe must report !ok")
	}
}

func TestFailureOrderingAndLookup(t *testing.T) {
	n := testNetwork()
	fs := n.Failures()
	for i := 1; i < len(fs); i++ {
		if fs[i].Year < fs[i-1].Year {
			t.Fatalf("failures not sorted by year: %+v", fs)
		}
		if fs[i].Year == fs[i-1].Year && fs[i].Day < fs[i-1].Day {
			t.Fatalf("failures not sorted by day within year: %+v", fs)
		}
	}
	p3 := failuresOf(n, "P3")
	if len(p3) != 3 {
		t.Fatalf("P3 has %d failures, want 3", len(p3))
	}
	if p3[0].Year != 2001 || p3[0].Day != 10 {
		t.Fatalf("first P3 failure should be 2001 day 10, got %+v", p3[0])
	}
	if len(failuresOf(n, "P2")) != 0 {
		t.Fatal("P2 has no failures")
	}
}

func TestFailureCountAndFailedInYear(t *testing.T) {
	n := testNetwork()
	const p1, p3 = 0, 2 // registry rows
	if got := n.FailureCount(p3, 1998, 2009); got != 3 {
		t.Fatalf("count = %d", got)
	}
	if got := n.FailureCount(p3, 2001, 2001); got != 2 {
		t.Fatalf("count 2001 = %d", got)
	}
	if got := n.FailureCount(p3, 2006, 2009); got != 0 {
		t.Fatalf("count empty window = %d", got)
	}
	if !n.FailedInYear(p1, 2000) || n.FailedInYear(p1, 2001) {
		t.Fatal("FailedInYear wrong for P1")
	}
}

// TestFailuresInYears counts the failures in an inclusive year window
// through the columnar form, the view the feature builder reads.
func TestFailuresInYears(t *testing.T) {
	c := testNetwork()
	inYears := func(from, to int) int {
		total := 0
		for i := 0; i < c.NumPipes(); i++ {
			total += c.FailureCount(i, from, to)
		}
		return total
	}
	if got := inYears(1998, 2008); got != 4 {
		t.Fatalf("window 1998-2008: %d, want 4 (all events)", got)
	}
	if got := inYears(2001, 2001); got != 2 {
		t.Fatalf("window 2001: %d, want 2", got)
	}
	if got := inYears(2009, 2009); got != 0 {
		t.Fatalf("window 2009: %d", got)
	}
}

func TestSubsetByClass(t *testing.T) {
	n := testNetwork()
	cwm := n.SubsetByClass(CriticalMain)
	if cwm.NumPipes() != 2 || cwm.NumFailures() != 4 {
		t.Fatalf("CWM subset: %d pipes, %d failures", cwm.NumPipes(), cwm.NumFailures())
	}
	rwm := n.SubsetByClass(ReticulationMain)
	if rwm.NumPipes() != 1 || rwm.NumFailures() != 0 {
		t.Fatalf("RWM subset: %d pipes, %d failures", rwm.NumPipes(), rwm.NumFailures())
	}
}

func TestSummarize(t *testing.T) {
	n := testNetwork()
	rows := n.Summarize()
	if len(rows) != 3 {
		t.Fatalf("want 3 rows (All, CWM, RWM), got %d", len(rows))
	}
	all := rows[0]
	if all.Scope != "All" || all.NumPipes != 3 || all.NumFailures != 4 {
		t.Fatalf("All row: %+v", all)
	}
	if all.LaidFrom != 1930 || all.LaidTo != 1990 {
		t.Fatalf("laid range: %+v", all)
	}
	if all.TotalKM != (500+120+900)/1000.0 {
		t.Fatalf("total km: %v", all.TotalKM)
	}
	if rows[1].Scope != "CWM" || rows[1].NumPipes != 2 {
		t.Fatalf("CWM row: %+v", rows[1])
	}
}

// randomRegion returns n pipes whose class is CWM with probability
// cwmShare, with random laid years and lengths, and about 2n failures on
// random pipes. Only the fields Summarize reads are filled.
func randomRegion(seed int64, n int, cwmShare float64) *Columns {
	rng := rand.New(rand.NewSource(seed))
	c := &Columns{Region: "R", ObservedFrom: 1998, ObservedTo: 2009}
	for i := 0; i < n; i++ {
		p := Pipe{ID: fmt.Sprint(i), Class: ReticulationMain, LaidYear: 1880 + rng.Intn(125), LengthM: 10 + 900*rng.Float64()}
		if rng.Float64() < cwmShare {
			p.Class = CriticalMain
		}
		c.Registry.Append(&p)
	}
	for e := 0; n > 0 && e < 2*n; e++ {
		c.Events.Pipe = append(c.Events.Pipe, uint32(rng.Intn(n)))
		c.Events.Segment = append(c.Events.Segment, 0)
		c.Events.Year = append(c.Events.Year, 2000)
		c.Events.Day = append(c.Events.Day, 1)
		c.Events.Mode = append(c.Events.Mode, ModeBreak)
	}
	c.IndexEvents()
	return c
}

// summarizeBySubsets is the oracle for Summarize: one row per scope,
// each counted and summed over a SubsetByClass copy.
func summarizeBySubsets(c *Columns) []Summary {
	row := func(scope string, sub *Columns) Summary {
		from, to := sub.LaidYearRange()
		return Summary{
			Region: c.Region, Scope: scope,
			NumPipes: sub.NumPipes(), NumFailures: sub.NumFailures(),
			LaidFrom: from, LaidTo: to,
			ObservedFrom: c.ObservedFrom, ObservedTo: c.ObservedTo,
			TotalKM: sub.TotalLengthM() / 1000,
		}
	}
	rows := []Summary{row("All", c)}
	for _, class := range []PipeClass{CriticalMain, ReticulationMain} {
		if sub := c.SubsetByClass(class); sub.NumPipes() > 0 {
			rows = append(rows, row(class.String(), sub))
		}
	}
	return rows
}

func TestSummarizeMatchesSubsets(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, share := range []float64{0, 0.1, 0.5, 0.9, 1} {
			for _, n := range []int{0, 1, 2, 7, 300} {
				c := randomRegion(seed, n, share)
				got, want := c.Summarize(), summarizeBySubsets(c)
				if len(got) != len(want) {
					t.Fatalf("seed %d share %v n %d: %d rows, want %d", seed, share, n, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] || math.Float64bits(got[i].TotalKM) != math.Float64bits(want[i].TotalKM) {
						t.Fatalf("seed %d share %v n %d row %d:\n got %+v\nwant %+v", seed, share, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestSummarizeAllocsFlat checks that Summarize counts in place: its
// allocations must not grow with the registry.
func TestSummarizeAllocsFlat(t *testing.T) {
	small, large := randomRegion(1, 1_000, 0.3), randomRegion(1, 50_000, 0.3)
	a := testing.AllocsPerRun(5, func() { small.Summarize() })
	b := testing.AllocsPerRun(5, func() { large.Summarize() })
	if a != b {
		t.Fatalf("Summarize allocates %v times at 1k pipes and %v at 50k", a, b)
	}
}

func TestLaidYearRangeEmpty(t *testing.T) {
	n := mustRows("E", 2000, 2001, nil, nil)
	lo, hi := n.LaidYearRange()
	if lo != 0 || hi != 0 {
		t.Fatal("empty network laid range must be (0,0)")
	}
}

func TestPipeAgeAt(t *testing.T) {
	p := Pipe{LaidYear: 1950}
	if p.AgeAt(2000) != 50 {
		t.Fatal("age wrong")
	}
	if p.AgeAt(1940) != 0 {
		t.Fatal("age must clamp at 0")
	}
}

func TestSegmentLength(t *testing.T) {
	p := Pipe{LengthM: 100, Segments: 4}
	if p.SegmentLengthM() != 25 {
		t.Fatal("segment length wrong")
	}
	p.Segments = 0
	if p.SegmentLengthM() != 100 {
		t.Fatal("degenerate segments must return full length")
	}
}

func TestPipeClassRoundTrip(t *testing.T) {
	for _, c := range []PipeClass{CriticalMain, ReticulationMain} {
		got, err := ParsePipeClass(c.String())
		if err != nil || got != c {
			t.Fatalf("round trip %v: %v, %v", c, got, err)
		}
	}
	if _, err := ParsePipeClass("XYZ"); err == nil {
		t.Fatal("unknown class must error")
	}
	if !strings.Contains(PipeClass(9).String(), "9") {
		t.Fatal("unknown class String should include the value")
	}
}

func TestClassForDiameter(t *testing.T) {
	if ClassForDiameter(300) != CriticalMain {
		t.Fatal("300mm is critical")
	}
	if ClassForDiameter(299) != ReticulationMain {
		t.Fatal("299mm is reticulation")
	}
}
