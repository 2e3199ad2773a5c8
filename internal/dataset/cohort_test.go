package dataset

import (
	"math"
	"testing"
)

func TestCohortByMaterial(t *testing.T) {
	n := testNetwork() // P1 CICL (1 failure), P2 PVC (0), P3 CI (3)
	rows := n.CohortByMaterial()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Sorted by rate desc: CI first (3 failures / 12 pipe-years).
	if rows[0].Cohort != "CI" {
		t.Fatalf("first cohort %s", rows[0].Cohort)
	}
	if rows[0].Failures != 3 || rows[0].Pipes != 1 {
		t.Fatalf("CI row %+v", rows[0])
	}
	if want := 3.0 / 12.0; math.Abs(rows[0].RatePerPipeYear-want) > 1e-12 {
		t.Fatalf("CI rate %v, want %v", rows[0].RatePerPipeYear, want)
	}
	// CI exposure: 12 years x 0.9 km = 10.8 km-years → 3/10.8*100 per 100km-yr.
	if want := 3.0 / 10.8 * 100; math.Abs(rows[0].RatePer100KMYear-want) > 1e-9 {
		t.Fatalf("CI km rate %v, want %v", rows[0].RatePer100KMYear, want)
	}
	// PVC has zero failures.
	for _, r := range rows {
		if r.Cohort == "PVC" && (r.Failures != 0 || r.RatePerPipeYear != 0) {
			t.Fatalf("PVC row %+v", r)
		}
	}
}

func TestCohortByAgeBand(t *testing.T) {
	n := testNetwork()
	rows, err := n.CohortByAgeBand(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no age bands")
	}
	// Total exposure across bands = sum of active years = 3 pipes x 12.
	total := 0.0
	fails := 0
	for _, r := range rows {
		total += r.PipeYears
		fails += r.Failures
	}
	if total != 36 {
		t.Fatalf("total pipe-years %v, want 36", total)
	}
	if fails != 4 {
		t.Fatalf("total failures %v, want 4", fails)
	}
	// P3 laid 1930: failure in 2001 at age 71 → band "age 70-79".
	found := false
	for _, r := range rows {
		if r.Cohort == "age 70-79" && r.Failures >= 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("age 70-79 band missing P3's failures: %+v", rows)
	}
	if _, err := n.CohortByAgeBand(0); err == nil {
		t.Fatal("band width 0 must error")
	}
}

func TestCohortByDiameterBand(t *testing.T) {
	n := testNetwork() // diameters 375, 100, 450
	rows, err := n.CohortByDiameterBand([]float64{300, 400})
	if err != nil {
		t.Fatal(err)
	}
	// Bands: <300 (P2), 300-400 (P1), >=400 (P3).
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Cohort != "<300mm" || rows[0].Pipes != 1 {
		t.Fatalf("first band %+v", rows[0])
	}
	if rows[2].Cohort != ">=400mm" || rows[2].Failures != 3 {
		t.Fatalf("last band %+v", rows[2])
	}
	if _, err := n.CohortByDiameterBand(nil); err == nil {
		t.Fatal("no bounds must error")
	}
	if _, err := n.CohortByDiameterBand([]float64{300, 200}); err == nil {
		t.Fatal("non-ascending bounds must error")
	}
}

func TestSegmentHotspots(t *testing.T) {
	pipes := []Pipe{
		{ID: "H", Class: ReticulationMain, Material: CICL, Coating: CoatingNone,
			DiameterMM: 100, LengthM: 100, LaidYear: 1950, Segments: 3},
	}
	fails := []Failure{
		{PipeID: "H", Segment: 1, Year: 2000, Day: 1, Mode: ModeBreak},
		{PipeID: "H", Segment: 1, Year: 2003, Day: 1, Mode: ModeBreak},
		{PipeID: "H", Segment: 1, Year: 2007, Day: 1, Mode: ModeBreak},
		{PipeID: "H", Segment: 0, Year: 2004, Day: 1, Mode: ModeLeak},
	}
	n := mustRows("S", 1998, 2009, pipes, fails)
	hot := n.SegmentHotspots(2)
	if len(hot) != 1 {
		t.Fatalf("hotspots %+v", hot)
	}
	if hot[0].PipeID != "H" || hot[0].Segment != 1 || hot[0].Failures != 3 {
		t.Fatalf("hotspot %+v", hot[0])
	}
	all := n.SegmentHotspots(0) // clamps to 1
	if len(all) != 2 {
		t.Fatalf("all hotspots %+v", all)
	}
	if all[0].Failures < all[1].Failures {
		t.Fatal("hotspots not sorted")
	}
}

func TestCohortEmptyBandsSkipped(t *testing.T) {
	n := testNetwork()
	rows, err := n.CohortByDiameterBand([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// All pipes land in the open-ended band.
	if len(rows) != 1 || rows[0].Cohort != ">=3mm" {
		t.Fatalf("rows %+v", rows)
	}
}
