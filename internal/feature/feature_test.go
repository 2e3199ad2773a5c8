package feature

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// buildNet constructs a deterministic 4-pipe network with failures placed
// so history/label logic can be verified by hand.
func buildNet() *dataset.Columns {
	pipes := []dataset.Pipe{
		{ID: "P0", Class: dataset.CriticalMain, Material: dataset.CICL,
			Coating: dataset.CoatingNone, DiameterMM: 375, LengthM: 400,
			LaidYear: 1950, SoilCorrosivity: "HIGH", SoilExpansivity: "SLIGHT",
			SoilGeology: "CLAY", SoilMap: "FLUVIAL", DistToTrafficM: 10, Segments: 4},
		{ID: "P1", Class: dataset.ReticulationMain, Material: dataset.PVC,
			Coating: dataset.CoatingNone, DiameterMM: 100, LengthM: 80,
			LaidYear: 1985, SoilCorrosivity: "LOW", SoilExpansivity: "STABLE",
			SoilGeology: "SANDSTONE", SoilMap: "RESIDUAL", DistToTrafficM: 500, Segments: 1},
		{ID: "P2", Class: dataset.CriticalMain, Material: dataset.CI,
			Coating: dataset.CoatingTar, DiameterMM: 450, LengthM: 900,
			LaidYear: 1935, SoilCorrosivity: "SEVERE", SoilExpansivity: "HIGH",
			SoilGeology: "SHALE", SoilMap: "SWAMP", DistToTrafficM: 3, Segments: 9},
		{ID: "P3", Class: dataset.ReticulationMain, Material: dataset.AC,
			Coating: dataset.CoatingNone, DiameterMM: 150, LengthM: 200,
			LaidYear: 2003, SoilCorrosivity: "MODERATE", SoilExpansivity: "MODERATE",
			SoilGeology: "ALLUVIUM", SoilMap: "EROSIONAL", DistToTrafficM: 60, Segments: 2},
	}
	fails := []dataset.Failure{
		{PipeID: "P2", Segment: 1, Year: 2000, Day: 10, Mode: dataset.ModeBreak},
		{PipeID: "P2", Segment: 2, Year: 2004, Day: 50, Mode: dataset.ModeBreak},
		{PipeID: "P0", Segment: 0, Year: 2005, Day: 99, Mode: dataset.ModeLeak},
		{PipeID: "P2", Segment: 3, Year: 2009, Day: 200, Mode: dataset.ModeBreak},
	}
	net, err := dataset.FromRows("F", 1998, 2009, pipes, fails)
	if err != nil {
		panic(err)
	}
	return net
}

func mustSplit(t *testing.T, n *dataset.Columns) dataset.Split {
	t.Helper()
	s, err := dataset.PaperSplit(n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuilderDefaultsToAllGroups(t *testing.T) {
	b, err := NewBuilder(buildNet(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := b.Names()
	for _, want := range []string{"material=", "coating=", "age", "log_diameter",
		"soil_corr=", "soil_exp=", "soil_geo=", "soil_map=", "log_dist_traffic", "prior_failures"} {
		found := false
		for _, n := range names {
			if strings.Contains(n, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("feature name containing %q missing from %v", want, names)
		}
	}
	if b.Dim() != len(names) {
		t.Fatal("Dim mismatch")
	}
}

func TestNilNetworkRejected(t *testing.T) {
	if _, err := NewBuilder(nil, Options{}); err == nil {
		t.Fatal("nil columns must error")
	}
}

func TestTrainSetShapeAndLaidFilter(t *testing.T) {
	net := buildNet()
	b, err := NewBuilder(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	split := mustSplit(t, net) // train 1998-2008, test 2009
	tr, err := b.TrainSet(split)
	if err != nil {
		t.Fatal(err)
	}
	// P0, P1, P2 active all 11 years; P3 laid 2003, active 2003-2008 = 6.
	want := 3*11 + 6
	if tr.Len() != want {
		t.Fatalf("train rows = %d, want %d", tr.Len(), want)
	}
	if tr.Dim() != b.Dim() {
		t.Fatal("dim mismatch")
	}
	// Labels: P2 failed 2000, 2004; P0 failed 2005 → 3 positives in train.
	if got := tr.Positives(); got != 3 {
		t.Fatalf("train positives = %d, want 3", got)
	}
	if flat, _ := tr.Flat(); len(flat) != tr.Len()*tr.Dim() {
		t.Fatalf("backing holds %d values, want %d rows x %d", len(flat), tr.Len(), tr.Dim())
	}
}

func TestTestSetShape(t *testing.T) {
	net := buildNet()
	b, err := NewBuilder(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	split := mustSplit(t, net)
	if _, err := b.TestSet(split); err == nil {
		t.Fatal("TestSet before TrainSet must error")
	}
	if _, err := b.TrainSet(split); err != nil {
		t.Fatal(err)
	}
	te, err := b.TestSet(split)
	if err != nil {
		t.Fatal(err)
	}
	if te.Len() != 4 {
		t.Fatalf("test rows = %d, want 4", te.Len())
	}
	// Only P2 failed in 2009.
	if te.Positives() != 1 {
		t.Fatalf("test positives = %d", te.Positives())
	}
	if !te.Label[2] {
		t.Fatal("P2 must be the positive")
	}
}

func TestHistoryFeatureNoLeakage(t *testing.T) {
	net := buildNet()
	b, err := NewBuilder(net, Options{Groups: Groups{History: true}})
	if err != nil {
		t.Fatal(err)
	}
	split := mustSplit(t, net)
	tr, err := b.TrainSet(split)
	if err != nil {
		t.Fatal(err)
	}
	// Without standardization the raw counts are inspectable.
	// Locate P2's instance for year 2004: prior failures in [1998, 2003] = 1.
	// P2 was laid in 1935, so its age names the instance year.
	var found bool
	for i := range tr.Label {
		x := tr.Row(i, nil)
		if tr.PipeIdx[i] == 2 && tr.Age[i] == 2004-1935 {
			found = true
			if x[0] != 1 {
				t.Fatalf("P2@2004 prior_failures = %v, want 1 (no leakage of the 2004 event)", x[0])
			}
			if x[1] != 1 {
				t.Fatalf("P2@2004 had_failure = %v", x[1])
			}
			if !tr.Label[i] {
				t.Fatal("P2@2004 must be labelled positive")
			}
		}
		if tr.PipeIdx[i] == 2 && tr.Age[i] == 1998-1935 {
			if x[0] != 0 {
				t.Fatalf("P2@1998 prior_failures = %v, want 0", x[0])
			}
		}
	}
	if !found {
		t.Fatal("P2@2004 instance missing")
	}
	// Test set: P2 prior failures over the whole train window = 2.
	te, err := b.TestSet(split)
	if err != nil {
		t.Fatal(err)
	}
	if got := te.Row(2, nil)[0]; got != 2 {
		t.Fatalf("P2 test prior_failures = %v, want 2", got)
	}
}

func TestStandardizationTrainStats(t *testing.T) {
	net := buildNet()
	b, err := NewBuilder(net, Options{Groups: Groups{Age: true, Geometry: true}, Standardize: true})
	if err != nil {
		t.Fatal(err)
	}
	split := mustSplit(t, net)
	tr, err := b.TrainSet(split)
	if err != nil {
		t.Fatal(err)
	}
	// Every numeric column must have ~zero mean and ~unit variance on train.
	for j := 0; j < tr.Dim(); j++ {
		sum, ss := 0.0, 0.0
		for r := range tr.Label {
			sum += tr.Row(r, nil)[j]
		}
		mean := sum / float64(tr.Len())
		for r := range tr.Label {
			d := tr.Row(r, nil)[j] - mean
			ss += d * d
		}
		sd := math.Sqrt(ss / float64(tr.Len()))
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("column %d mean %v after standardization", j, mean)
		}
		if math.Abs(sd-1) > 1e-9 {
			t.Fatalf("column %d sd %v after standardization", j, sd)
		}
	}
}

func TestOneHotExactlyOnePerFactor(t *testing.T) {
	net := buildNet()
	b, err := NewBuilder(net, Options{Groups: Groups{Material: true, Soil: true}})
	if err != nil {
		t.Fatal(err)
	}
	split := mustSplit(t, net)
	tr, err := b.TrainSet(split)
	if err != nil {
		t.Fatal(err)
	}
	names := b.Names()
	prefixes := []string{"material=", "coating=", "soil_corr=", "soil_exp=", "soil_geo=", "soil_map="}
	for r := range tr.Label {
		row := tr.Row(r, nil)
		for _, pre := range prefixes {
			s := 0.0
			for j, n := range names {
				if strings.HasPrefix(n, pre) {
					s += row[j]
				}
			}
			if s != 1 {
				t.Fatalf("one-hot group %s sums to %v", pre, s)
			}
		}
	}
}

func TestGroupsWithout(t *testing.T) {
	g := AllGroups()
	for _, name := range []string{"material", "age", "geometry", "soil", "traffic", "history"} {
		got, err := g.Without(name)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Any() {
			t.Fatal("removing one group must leave others")
		}
	}
	if _, err := g.Without("bogus"); err == nil {
		t.Fatal("unknown group must error")
	}
	var none Groups
	if none.Any() {
		t.Fatal("zero Groups must report none")
	}
}

func TestAblationChangesDim(t *testing.T) {
	net := buildNet()
	full, err := NewBuilder(net, Options{Groups: AllGroups()})
	if err != nil {
		t.Fatal(err)
	}
	noSoil, err := AllGroups().Without("soil")
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := NewBuilder(net, Options{Groups: noSoil})
	if err != nil {
		t.Fatal(err)
	}
	if reduced.Dim() >= full.Dim() {
		t.Fatalf("removing soil must shrink dim: %d vs %d", reduced.Dim(), full.Dim())
	}
}
